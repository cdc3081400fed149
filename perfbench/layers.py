"""Which cstm names the benchmark wraps, and the per-layer metrics it derives.

The wrapped names are the module-level names through which ``cstm.experiments``,
``cstm.stm``, ``cstm.cli`` and the benchmark's own workload code reach each
layer.  Calls inside one module (for example ``acmtf`` calling
``tensor_core.unfold``) are not wrapped, so their time is the caller's self
time.  ``config`` only parses text and is not a measured layer; its time
counts as ``cli`` self time.
"""

from __future__ import annotations

import inspect
import os
import time

import numpy as np

from cstm import acmtf, cli, container, experiments, kernels, stm
from cstm.acmtf import AcmtfFactors, AcmtfHyperParams
from cstm.experiments import ExperimentConfig
from cstm.tensor_core import KruskalTensor

from spans import Target, mean, median, self_times, tail_percentile

LAYERS = ("tensor_core", "acmtf", "kernels", "stm", "experiments", "container", "cli")

PRUNE_REL = ExperimentConfig.__dataclass_fields__["prune_rel"].default
QP_TOL = inspect.signature(stm.solve_qp).parameters["tol"].default

# (name, unit, the end-to-end reading it should move, on which workload).
# End-to-end names are those the run prints; `op_s` carries study_s on
# study, split_s on classify and fit_s + predict on fit-predict.
_STUDY = "study_s on study"
_CLASSIFY = "split_s on classify"
_CLI = "fit_s, predict_s_per_sample on fit-predict"
_ACMTF = "study_s, final_objective_mean on study; " + _CLI
PER_LAYER = (
    ("tensor_core.self_s", "s", _STUDY),
    ("tensor_core.cp_als_s", "s", _STUDY),
    ("tensor_core.cp_als_calls", "count", _STUDY),
    ("acmtf.self_s", "s", _ACMTF),
    ("acmtf.eval_grad_us", "us", _ACMTF),
    ("acmtf.eval_obj_us", "us", _ACMTF),
    ("acmtf.eval_mflop", "MFLOP", "computed from the dims; moves only if the evaluation's arithmetic changes"),
    ("acmtf.eval_gflops", "GFLOP/s", _ACMTF),
    ("acmtf.decompose_s", "s", _ACMTF),
    ("acmtf.decompose_tail_s", "s", _ACMTF),
    ("acmtf.decompose_tail_pct", "percentile", "the percentile decompose_tail_s reports"),
    ("acmtf.decompose_calls", "count", "sample count behind decompose_s"),
    ("acmtf.iterations_mean", "count", _ACMTF),
    ("acmtf.us_per_iter", "us", _ACMTF),
    ("acmtf.maxiter_frac", "fraction", _ACMTF),
    ("acmtf.rank_r3", "count", _ACMTF + "; kernels.gram_s"),
    ("acmtf.rank_r4", "count", _ACMTF + "; kernels.gram_s"),
    ("acmtf.rank_r5", "count", _ACMTF + "; kernels.gram_s"),
    ("kernels.self_s", "s", _CLASSIFY),
    ("kernels.gram_s", "s", _CLASSIFY),
    ("kernels.gram_cross_s", "s", "split_s on classify; predict_s_per_sample on fit-predict"),
    ("kernels.cp_gram_s", "s", _CLASSIFY),
    ("kernels.cp_gram_cross_s", "s", _CLASSIFY),
    ("kernels.spec_fit_s", "s", _CLASSIFY),
    ("kernels.mixed_rank_frac", "fraction", _CLASSIFY),
    ("stm.self_s", "s", _CLASSIFY),
    ("stm.select_lambda_s", "s", _CLASSIFY),
    ("stm.solve_qp_s", "s", _CLASSIFY),
    ("stm.solve_qp_calls", "count", _CLASSIFY),
    ("stm.smo_updates_mean", "count", _CLASSIFY),
    ("stm.smo_unconverged", "count", "split_s, acc_cstm on classify"),
    ("stm.support_vectors_mean", "count", _CLASSIFY),
    ("stm.fit_s", "s", _CLASSIFY),
    ("stm.decision_s", "s", _CLASSIFY),
    ("experiments.self_s", "s", _STUDY),
    ("experiments.decompose_stage_s", "s", _STUDY),
    ("experiments.repetitions_stage_s", "s", _STUDY),
    ("container.self_s", "s", _CLI),
    ("container.read_sample_s", "s", _CLI),
    ("container.write_model_s", "s", "fit_s on fit-predict"),
    ("container.read_model_s", "s", "predict_s_per_sample on fit-predict"),
    ("container.model_bytes", "bytes", _CLI),
    ("cli.self_s", "s", _CLI),
    ("cli.fit_self_s", "s", "fit_s on fit-predict"),
    ("cli.predict_self_s", "s", "predict_s_per_sample on fit-predict"),
    ("bench.self_s", "s", "none: the benchmark's own code inside the traced passes"),
    ("trace.traced_s", "s", "none: wall time of the traced passes"),
    ("trace.untraced_s", "s", "none: wall time of the same passes untraced"),
    ("trace.overhead_frac", "fraction", "none: traced_s / untraced_s - 1"),
)


def _decompose_attrs(args, kwargs, f):
    return {
        "iterations": len(f.objective_history) - 1,
        "converged": bool(f.converged),
        "final_objective": float(f.objective_history[-1]),
        "rank": f.pruned(PRUNE_REL).rank,
    }


def _qp_attrs(args, kwargs, sol):
    tol = kwargs.get("tol", args[1] if len(args) > 1 else QP_TOL)
    return {
        "updates": int(sol.n_updates),
        "converged": bool(sol.converged),
        "kkt": float(sol.kkt_violation),
        "tol": float(tol),
    }


def _model_attrs(args, kwargs, model):
    return {"support_vectors": int(model.support_indices.size)}


def _gram_attrs(args, kwargs, result):
    # Symmetric forms take one list of inputs, cross forms two.
    seqs = [a for a in args if isinstance(a, (list, tuple)) and a and hasattr(a[0], "rank")]
    return {"mixed": len({x.rank for s in seqs for x in s}) > 1}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def check_targets() -> list[Target]:
    """Names wrapped in every run, for the output checks only."""
    return [
        Target(stm, "solve_qp", "stm", _qp_attrs),
        Target(cli, "acmtf_decompose", "acmtf", _decompose_attrs),
    ]


def all_targets() -> list[Target]:
    """Names wrapped in the traced passes."""
    T = Target
    return check_targets() + [
        T(experiments, "run_experiment", "experiments"),
        T(experiments, "stratified_split", "experiments"),
        T(experiments, "compute_metrics", "experiments"),
        T(experiments, "acmtf_decompose", "acmtf", _decompose_attrs),
        T(experiments, "cp_als", "tensor_core"),
        T(experiments, "default_coupled_spec", "kernels"),
        T(experiments, "default_cp_specs", "kernels"),
        T(experiments, "gram_matrix", "kernels", _gram_attrs),
        T(experiments, "cp_gram", "kernels", _gram_attrs),
        T(stm, "select_lambda", "stm"),
        T(stm, "fit", "stm", _model_attrs),
        T(stm, "cpstm_fit", "stm", _model_attrs),
        T(stm, "decision_many", "stm"),
        T(stm, "cpstm_decision_many", "stm"),
        T(stm, "matrix_to_kruskal", "stm"),
        T(stm, "gram_cross", "kernels", _gram_attrs),
        T(stm, "cp_gram_cross", "kernels", _gram_attrs),
        # The classify workload calls these through the kernels module.
        T(kernels, "default_coupled_spec", "kernels"),
        T(kernels, "default_cp_specs", "kernels"),
        T(kernels, "gram_matrix", "kernels", _gram_attrs),
        T(kernels, "cp_gram", "kernels", _gram_attrs),
        T(cli, "main", "cli"),
        T(cli, "cmd_fit", "cli"),
        T(cli, "cmd_predict", "cli"),
        T(cli, "gram_matrix", "kernels", _gram_attrs),
        T(container, "read_sample", "container"),
        T(container, "write_model", "container", _file_attrs),
        T(container, "read_model", "container"),
        T(container, "write_manifest", "container"),
    ]


def kkt_problems(spans) -> list[str]:
    """Converged SMO solves whose KKT gap exceeds their tolerance."""
    return [
        f"solve_qp converged with kkt {s.attrs['kkt']:.3g} > tol {s.attrs['tol']:.3g}"
        for s in spans
        if s.name == "stm.solve_qp" and s.attrs.get("converged")
        and s.attrs["kkt"] > s.attrs["tol"]
    ]


def layer_metrics(tracer, pass_ids, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes."""
    selfs = self_times(tracer.spans)
    picked = [(s, t) for s, t in zip(tracer.spans, selfs) if s.pass_id in pass_ids]
    spans = [s for s, _ in picked]

    def named(*names):
        return [s for s in spans if s.name in names]

    def durations(*names):
        return [s.duration for s in named(*names)]

    def self_of(*names):
        return sum(t for s, t in picked if s.name in names)

    out: dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(t for s, t in picked if s.layer == layer)

    out["tensor_core.cp_als_s"] = median(durations("tensor_core.cp_als"))
    out["tensor_core.cp_als_calls"] = len(named("tensor_core.cp_als"))

    dec = named("acmtf.acmtf_decompose")
    dec_t = [s.duration for s in dec]
    iters = [s.attrs["iterations"] for s in dec]
    tail = tail_percentile(dec_t)
    out["acmtf.decompose_s"] = median(dec_t)
    out["acmtf.decompose_tail_s"] = tail[1] if tail else 0.0
    out["acmtf.decompose_tail_pct"] = tail[0] if tail else 0
    out["acmtf.decompose_calls"] = len(dec)
    out["acmtf.iterations_mean"] = mean(iters)
    out["acmtf.us_per_iter"] = 1e6 * sum(dec_t) / sum(iters) if sum(iters) else 0.0
    out["acmtf.maxiter_frac"] = (
        sum(not s.attrs["converged"] for s in dec) / len(dec) if dec else 0.0
    )
    for r in (3, 4, 5):
        out[f"acmtf.rank_r{r}"] = sum(s.attrs["rank"] == r for s in dec)

    grams = named("kernels.gram_matrix", "kernels.gram_cross",
                  "kernels.cp_gram", "kernels.cp_gram_cross")
    out["kernels.gram_s"] = median(durations("kernels.gram_matrix"))
    out["kernels.gram_cross_s"] = median(durations("kernels.gram_cross"))
    out["kernels.cp_gram_s"] = median(durations("kernels.cp_gram"))
    out["kernels.cp_gram_cross_s"] = median(durations("kernels.cp_gram_cross"))
    out["kernels.spec_fit_s"] = median(
        durations("kernels.default_coupled_spec", "kernels.default_cp_specs")
    )
    out["kernels.mixed_rank_frac"] = (
        sum(s.attrs["mixed"] for s in grams) / len(grams) if grams else 0.0
    )

    qp = named("stm.solve_qp")
    fits = named("stm.fit", "stm.cpstm_fit")
    out["stm.select_lambda_s"] = median(durations("stm.select_lambda"))
    out["stm.solve_qp_s"] = median(s.duration for s in qp)
    out["stm.solve_qp_calls"] = len(qp)
    out["stm.smo_updates_mean"] = mean(s.attrs["updates"] for s in qp)
    out["stm.smo_unconverged"] = sum(not s.attrs["converged"] for s in qp)
    out["stm.support_vectors_mean"] = mean(s.attrs["support_vectors"] for s in fits)
    out["stm.fit_s"] = median(s.duration for s in fits)
    out["stm.decision_s"] = median(
        durations("stm.decision_many", "stm.cpstm_decision_many")
    )

    out["container.read_sample_s"] = median(durations("container.read_sample"))
    out["container.write_model_s"] = median(durations("container.write_model"))
    out["container.read_model_s"] = median(durations("container.read_model"))
    models = named("container.write_model")
    out["container.model_bytes"] = models[-1].attrs["bytes"] if models else 0

    out["cli.fit_self_s"] = self_of("cli.cmd_fit")
    out["cli.predict_self_s"] = self_of("cli.cmd_predict")

    # Each traced pass is one root span of the benchmark's own code.
    traced_s = sum(s.duration for s in spans if s.parent is None)
    out["trace.traced_s"] = traced_s
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    return out


def eval_flops(dims, rank) -> tuple[int, int]:
    """Floating-point operations of one objective and one objective+gradient
    evaluation, counted from the dims (dense products and elementwise terms)."""
    i1, i2, i3, i4 = dims
    r = rank
    n, m, cols = i1 * i2 * i3, i4 * i3, i1 + i2 + 2 * i3 + i4
    # Khatri-Rao product, reconstruction product, residuals and squared sums,
    # coupling term, column norms.
    obj = r * i2 * i3 + 2 * r * n + 3 * n + 2 * r * m + 3 * m + 3 * i3 * r + 3 * r * cols
    # Two more Khatri-Rao products, three MTTKRP products, two matrix
    # products and the penalty gradients.
    grad = obj + r * (i1 * i3 + i1 * i2) + 6 * r * n + 4 * r * m + 6 * r * cols
    return obj, grad


def _per_call_us(fn, batches: int = 15, batch_s: float = 0.02) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        reps *= 2
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return 1e6 * median(per_call)


def eval_probe(seed: int) -> dict[str, float]:
    """Time the public ACMTF objective and gradient on one study sample."""
    sample = experiments.gen_case(3, 1, seed)[0]
    h = AcmtfHyperParams()
    rng = np.random.default_rng(seed)
    i1, i2, i3, i4 = sample.dims

    def unit(rows):
        f = rng.standard_normal((rows, h.rank))
        return f / np.linalg.norm(f, axis=0)

    f = AcmtfFactors.from_kruskals(
        KruskalTensor(np.ones(h.rank), (unit(i1), unit(i2), unit(i3))),
        KruskalTensor(np.ones(h.rank), (unit(i4), unit(i3))),
    )
    grad_us = _per_call_us(lambda: acmtf.acmtf_gradient(sample, f, h))
    obj_us = _per_call_us(lambda: acmtf.acmtf_objective(sample, f, h))
    _, grad_flops = eval_flops(sample.dims, h.rank)
    return {
        "acmtf.eval_grad_us": grad_us,
        "acmtf.eval_obj_us": obj_us,
        "acmtf.eval_mflop": grad_flops / 1e6,
        "acmtf.eval_gflops": grad_flops / (grad_us * 1e3),
    }

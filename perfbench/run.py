"""cstm benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the operation repeats for ``--seconds`` (at least twice) and the
last line of standard output is a JSON object with the end-to-end metrics.
With ``--trace 1`` the run times the workload untraced, then again with spans
around every layer call, and reports the per-layer metrics.  Lines before the
last one describe the environment and every reading by name and unit.  A
fuller record, with ``"claim": null``, goes to ``perfbench/out/``.
"""

import os
import sys

# One BLAS thread, set before numpy is imported here or in any worker.
BLAS_PIN = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_CALLS = 15
MIN_OPS = 2
MAX_OPS = 500

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("acc_cstm", "fraction"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
)


def import_program():
    if not (SRC / "cstm" / "__init__.py").is_file():
        sys.exit(f"error: no cstm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cstm

    if Path(cstm.__file__).resolve().parent != (SRC / "cstm").resolve():
        sys.exit(f"error: cstm imported from {cstm.__file__}, not {SRC}")


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "cstm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_pin": BLAS_PIN,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without starting git, so
    that no child process counts in ``peak_rss_mb``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Setups:
    """Timed set-ups of one workload, each in a directory of its own.

    The first call builds the inputs that the operations use.  The others
    only time the set-up again, and ``catch_up`` spreads them over the run:
    the machine's speed changes in steps that last seconds, and a set-up takes
    tens of milliseconds, so set-ups timed back to back all meet the same
    step, while spread ones meet the same mix of steps as the operations.
    """

    def __init__(self, wl, seed, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.times: list[float] = []
        self.inputs = self._one()

    def _one(self):
        d = self.work / f"setup{len(self.times)}"
        d.mkdir()
        t0 = time.perf_counter()
        inputs = self.wl.setup(self.seed, str(d))
        self.times.append(time.perf_counter() - t0)
        if len(self.times) > 1:
            shutil.rmtree(d)
        return inputs

    def catch_up(self, share: float) -> None:
        """Time set-ups until they make up ``share`` of ``SETUP_CALLS``."""
        while len(self.times) < min(1.0, share) * SETUP_CALLS:
            self._one()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Runner:
    """Runs operations of one workload and checks each one's outputs."""

    def __init__(self, wl, inputs, tracer):
        self.wl, self.inputs, self.tracer = wl, inputs, tracer
        self.outcomes = []
        self.first = {}  # index % cycle -> first outcome on those inputs
        self.timings = {}  # workload timings of the untraced operations
        self._next_pass = 0

    def run_op(self, index: int, serial: bool = False, traced: bool = False):
        from workloads import Outcome

        pass_id = self._next_pass
        self._next_pass += 1
        self.tracer.pass_id = pass_id
        error = None
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("bench.op", "bench"):
                    raw = self.wl.op(self.inputs, index, serial)
            else:
                raw = self.wl.op(self.inputs, index, serial)
        except Exception:  # noqa: BLE001 - counted as failed and reported
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        # Calls made while checking belong to no operation.
        self.tracer.pass_id = None
        if error is None:
            try:
                out = self.wl.evaluate(self.inputs, index, raw, self.tracer.of_pass(pass_id))
            except Exception:  # noqa: BLE001 - counted as failed and reported
                error = traceback.format_exc()
        if error is not None:
            print(error, file=sys.stderr)
            out = Outcome(units=self.wl.units, failed=self.wl.units,
                          problems=[error.strip().splitlines()[-1]])
        key = index % self.wl.cycle
        if key not in self.first:
            self.first[key] = out
        elif out.fingerprint != self.first[key].fingerprint:
            out.problems.append("outputs differ from an earlier run on the same inputs")
            out.failed = out.units
        for p in out.problems:
            print(f"# check failed ({self.wl.name} op {index}): {p}", file=sys.stderr)
        self.outcomes.append(out)
        if not traced:
            for k, v in out.timings.items():
                self.timings.setdefault(k, []).append(v)
        return wall, pass_id


QUALITY_UNITS = {
    "acc_cstm": "fraction",
    "acc_cpstm_tensor": "fraction",
    "acc_cpstm_matrix": "fraction",
    "final_objective_mean": "objective",  # of the normalized problem
}


def reading(values) -> dict:
    """Median and tail of a timing, with the sample count."""
    from spans import median, tail_percentile

    tail = tail_percentile(values)
    out = {"median": median(values), "n": len(values), "unit": "s"}
    if tail:
        out[f"p{tail[0]}"] = tail[1]
    return out


def measure(wl, runner, tracer, seconds, setups) -> list[float]:
    """Repeat the operation untraced for ``seconds``, and at least
    ``MIN_OPS`` times and one full cycle of inputs; time the set-ups in
    between, in step with the share of ``seconds`` gone."""
    import layers
    from spans import median

    op_times = []
    min_ops = max(MIN_OPS, wl.cycle)
    cpus = sorted(os.sched_getaffinity(0))
    # Each vCPU of the VM speeds up and slows down on its own, in spells of
    # a few seconds, so a process that stays on one CPU meets that CPU's
    # spells only.  A single-process workload therefore runs each operation
    # on the next CPU in turn, which averages the CPUs as study's pool of
    # workers does.  Workers inherit the affinity, so study is left unpinned.
    turns = cpus if wl.workers == 1 and len(cpus) > 1 else None
    try:
        with tracer.installed(layers.check_targets()):
            t_start = time.perf_counter()
            # After the first ``min_ops``, start an operation only if a
            # typical one would end within ``seconds``, so that runs of long
            # operations do not overrun by one.
            while len(op_times) < min_ops or (
                time.perf_counter() - t_start + median(op_times) <= seconds
                and len(op_times) < MAX_OPS
            ):
                if turns:
                    os.sched_setaffinity(0, {turns[len(op_times) % len(turns)]})
                op_times.append(runner.run_op(len(op_times))[0])
                setups.catch_up((time.perf_counter() - t_start) / seconds)
    finally:
        os.sched_setaffinity(0, cpus)
    setups.catch_up(1.0)
    return op_times


def measure_traced(wl, runner, tracer, seed):
    """Per-layer metrics from traced operations next to untraced ones."""
    import layers

    per_layer = layers.eval_probe(seed)
    op_times = []
    # Spans recorded in pool workers would be lost, so the traced operations
    # run serially, next to untraced serial ones; which of the two runs
    # first alternates.
    if wl.workers > 1:
        with tracer.installed(layers.check_targets()):
            op_times = [runner.run_op(i)[0] for i in wl.trace_ops]
    same_threads, traced = [], []
    for k, i in enumerate(wl.trace_ops):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            targets = layers.all_targets() if with_spans else layers.check_targets()
            with tracer.installed(targets):
                wall, pass_id = runner.run_op(i, serial=True, traced=with_spans)
            if with_spans:
                traced.append(pass_id)
            else:
                same_threads.append(wall)
    per_layer.update(layers.layer_metrics(tracer, set(traced), sum(same_threads)))
    per_layer.update(runner.outcomes[0].extras)
    return op_times or same_threads, per_layer


def run(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    import_program()
    import layers
    import workloads
    from spans import Tracer, mean, median

    wl = workloads.WORKLOADS[args.workload]
    if wl.workers > nproc:
        sys.exit(f"error: {wl.name} starts {wl.workers} workers but nproc is {nproc}")
    env = environment(nproc)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        setups = Setups(wl, args.seed, work)

        tracer = Tracer()
        runner = Runner(wl, setups.inputs, tracer)
        if args.trace:
            setups.catch_up(1.0)
            op_times, per_layer = measure_traced(wl, runner, tracer, args.seed)
            tracer.write(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl")
        else:
            op_times = measure(wl, runner, tracer, args.seconds, setups)
            per_layer = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = runner.outcomes
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    firsts = list(runner.first.values())
    quality = {
        k: mean(o.quality[k] for o in firsts if k in o.quality)
        for k in QUALITY_UNITS if any(k in o.quality for o in firsts)
    }
    info = {"setup_s": reading(setups.times), wl.op_name: reading(op_times)}
    for k, values in runner.timings.items():
        info[k] = reading(values)
    info.update({k: {"value": v, "unit": QUALITY_UNITS[k]} for k, v in quality.items()})
    if args.trace:
        # Self times of the layers and of the benchmark's own code add up
        # to the traced wall time; the untraced wall time differs from it
        # by the tracing overhead.
        info["self_time_sum"] = {
            "value": sum(per_layer[f"{x}.self_s"] for x in layers.LAYERS + ("bench",)),
            "unit": "s",
        }
        for k in ("trace.traced_s", "trace.untraced_s", "trace.overhead_frac"):
            info[k] = {"value": per_layer[k], "unit": "fraction" if k.endswith("frac") else "s"}
    info["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
    info["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}

    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {k: {"value": per_layer.get(k, 0.0), "unit": u} for k, u in units.items()}
    else:
        values = {
            "setup_s": median(setups.times),
            "op_s": median(op_times),
            "acc_cstm": quality.get("acc_cstm", 0.0),
            "peak_rss_mb": info["peak_rss_mb"]["value"],
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "readings": info,
        "setup_times": setups.times, "op_times": op_times,
        "problems": [p for o in outcomes for p in o.problems],
        "per_layer_moves": {n: m for n, _, m in layers.PER_LAYER},
        "result": result, "claim": None,
    }
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for k, v in env.items():
        print(f"# env {k}: {v}")
    for k, v in info.items():
        print(f"# {wl.name} {k}: {json.dumps(v)}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "classify", "fit-predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

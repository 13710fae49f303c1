#!/usr/bin/env python3
"""Benchmark of the ``gz`` command line on three workloads.

Run from the repository root:

    python3 bench/run.py --workload check-d16 --seed 1 --seconds 30 --trace 0

``--trace 0`` times the real entry point, ``python -m gztower.cli`` with
``PYTHONPATH=src``, one child process at a time, and reports the
end-to-end metrics.  ``--trace 1`` runs the same commands in-process
through ``gztower.cli.main`` with every layer wrapped from outside (see
``spans.py``) and reports the per-layer metrics.  Every command passes
the output gate in ``gate.py``.  Human-readable lines and a run manifest
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark makes its own inputs from ``--seed``, writes only under
``.bench_work/`` in the repository and removes that directory's run
folder when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from gate import Outcome, classify, pass_ratio, read_report, run_child
from spans import CHECK_MEMBERS, LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# A run must end within 180 s; commands still running at this point from
# the start are killed and count as timed out.
RUN_BUDGET_S = 165.0
MIN_SETS = 2
SETUP_REPEATS = 5
TOWER_DEPTH = 16
# Entry scale of each workload's depth-16 input tower.  check-d16 uses the
# scale of the ROADMAP baseline.  At 0.3 the depth-16 spectral radius sits
# near 1, and `gz orbit --permute-factors` dies with the uncaught
# OverflowError recorded in NOTES.md on seeds 4, 5 and 6 of 0-6, so
# orbit-flow-d16 draws its tower at 0.2, where every seed tried runs clean.
TOWER_SCALE = {"check-d16": 0.3, "orbit-flow-d16": 0.2, "gen-d32": 0.3}
T_GRID = ",".join(f"{-2.0 + 0.02 * k:.2f}" for k in range(201))

# Why each workload was chosen and which layer it is meant to load.
WORKLOADS = {
    # `gz check` on the depth-16 tower with all 7 members: the ROADMAP's
    # headline command.  Loads the observable layer (commute, consistent,
    # conserve) and regularity's joint_commutant_kernel (anchor); the only
    # workload through cmd_check's 4-worker thread pool.
    "check-d16": "full check suite on a depth-16 tower; the only one through the thread pool",
    # `gz gen --depth 32`: random_theta_tower's Sylvester test per level,
    # then sreg_report.  Loads regularity and matcore's Kronecker SVDs;
    # observables are under 2% of its time and it never touches the pool.
    "gen-d32": "depth-32 generation and sreg report; regularity and Kronecker SVDs, no pool",
    # `gz orbit --permute-factors` (about 86k small expm through
    # a_act_stepwise) then `gz flow` over 201 times.  Reads every tower
    # once, the opposite of check-d16, so a per-tower cache must not cost.
    "orbit-flow-d16": "action and flow on a depth-16 tower; every tower is read once",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    **{f"{layer}.{k}": u for layer in LAYERS
       for k, u in (("calls", "count"), ("self_s", "s"), ("busy_s", "s"), ("wait_s", "s"))},
    **{f"cli.check.{m}.s": "s" for m in CHECK_MEMBERS},
    "cli.check.queue_wait_s": "s",
    "cli.check.overlap": "ratio",
    "cli.check.serial_sum_s": "s",
    "cli.check.blas1_wall_s": "s",
    "gz.poisson_bracket.calls": "count",
    "gz.poisson_bracket.s": "s",
    "gz.gz_eval.calls": "count",
    "gz.gz_eval.s": "s",
    "matcore.mat_pow.calls": "count",
    "matcore.mat_pow.s": "s",
    "matcore.mat_exp.calls": "count",
    "matcore.mat_exp.s": "s",
    "matcore.kernel_basis.s": "s",
    "matcore.rank_split.s": "s",
    "matcore.sylvester_min_singular.s": "s",
    "matcore.ad_operator.calls": "count",
    "matcore.operator_bytes_max": "bytes",
    "matcore.dense_op_bytes": "bytes",
    "regularity.sreg_report.calls": "count",
    "regularity.sreg_report.s": "s",
    "regularity.joint_commutant_kernel.s": "s",
    "regularity.differentials.s": "s",
    "regularity.centralizers.s": "s",
    "regularity.tangents.s": "s",
    "regularity.theta.s": "s",
    "regularity.margin_min": "factor",
    "regularity.decisive_ratio": "ratio",
    "action.flow.calls": "count",
    "action.flow.s": "s",
    "action.a_act.calls": "count",
    "action.a_act.s": "s",
    "action.ok_ratio": "ratio",
    "symplectic.omega_inf.calls": "count",
    "symplectic.omega_inf.s": "s",
    "symplectic.isotropy_check.s": "s",
    "symplectic.lagrangian_check.s": "s",
    "tower.level.calls": "count",
    "tower.Tower.calls": "count",
    "tower.random_theta_tower.s": "s",
    "tower.accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

COMPUTED = ("matcore.operator_bytes_max", "matcore.dense_op_bytes")

# Operators that public functions build privately; an outside-in trace
# cannot see them, so they stay unmeasured rather than reconstructed.
NOT_MEASURED = (
    "regularity: the centralizer-intersection stack of _intersection_split and its SVD",
    "regularity: the SVD of each ad operator in _regular_split (its bytes count at ad_operator)",
    "action: the factor products and solves of _action_product and _conjugate",
    "cli: the spectral norms (_norm2) taken by commute, consistent, match and orbit",
    "BLAS helper threads: busy_s is the calling thread's CPU only",
)

_SETUP_SNIPPET = (
    "import sys, gztower.cli\n"
    "if len(sys.argv) > 1:\n"
    "    from gztower.tower import tower_from_json\n"
    "    with open(sys.argv[1], encoding='utf-8') as handle:\n"
    "        tower_from_json(handle.read())\n"
)

_MANIFEST_SNIPPET = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy, scipy.linalg
import gztower.cli  # warms the bytecode cache before anything is timed

def openblas(pkg_dir, pattern, suffix):
    paths = sorted(glob.glob(os.path.join(pkg_dir, pattern)))
    if not paths:
        return {"library": None, "threads": None, "config": None}
    lib = ctypes.CDLL(paths[0])
    get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return {"library": os.path.basename(paths[0]), "threads": get_threads(),
            "config": get_config().decode()}

site = os.path.dirname(os.path.dirname(numpy.__file__))
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numpy_openblas": openblas(site, "numpy.libs/libscipy_openblas64_*.so", "64_"),
    "scipy_openblas": openblas(site, "scipy.libs/libscipy_openblas-*.so", ""),
}, sort_keys=True))
"""


def child_env(**extra: str) -> dict:
    """Environment of every child: the caller's, with ``PYTHONPATH=src``.

    ``GZ_SEED`` is dropped so that ``gz check`` uses its documented
    default seed.
    """
    env = {k: v for k, v in os.environ.items() if k != "GZ_SEED"}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def write_tower(seed: int, scale: float, path: str) -> None:
    """Depth-16 input tower drawn like ``random_theta_tower(16, seed, scale)``.

    Entries are complex Gaussians clipped to the unit disk, times the
    scale, drawn level by level in the same order from ``PCG64(seed)``.
    The Sylvester rejection test is left out: consecutive spectra of
    continuous samples are disjoint with probability one.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def entries(shape):
        g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        mag = np.abs(g)
        return scale * np.where(mag > 1.0, g / np.maximum(mag, 1e-300), g)

    top = entries((1, 1))
    while top.shape[0] < TOWER_DEPTH:
        n = top.shape[0]
        grown = np.zeros((n + 1, n + 1), dtype=np.complex128)
        grown[:n, :n] = top
        grown[:n, n] = entries((n,))
        grown[n, :n] = entries((n,))
        grown[n, n] = complex(entries(()))
        top = grown
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in top.tolist()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"depth": TOWER_DEPTH, "top": rows}, sort_keys=True) + "\n")


def commands(workload: str, seed: int, tower: str, work: str) -> list[tuple[str, list[str], str]]:
    """(kind, gz arguments, report path) for each command of one set."""
    if workload == "check-d16":
        report = os.path.join(work, "check.json")
        return [("check", ["check", tower, "-o", report], report)]
    if workload == "gen-d32":
        report = os.path.join(work, "gen32.json")
        argv = ["gen", "--depth", "32", "--seed", str(seed), "--scale", "0.3", "-o", report]
        return [("gen", argv, report)]
    orbit = os.path.join(work, "orbit.json")
    flow = os.path.join(work, "flow.json")
    return [
        ("orbit", ["orbit", tower, "--seed", str(seed), "--samples", "6",
                   "--permute-factors", "-o", orbit], orbit),
        ("flow", ["flow", tower, "--i", "8", "--j", "4", f"--t-grid={T_GRID}",
                  "-o", flow], flow),
    ]


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def run_gz(argv: list[str], report: str, work: str, env: dict, deadline: float) -> Outcome:
    _remove(report)
    outcome = run_child(
        [sys.executable, "-m", "gztower.cli", *argv],
        env=env,
        cwd=ROOT,
        timeout=deadline - time.perf_counter(),
        stdout_path=os.path.join(work, "stdout.txt"),
        stderr_path=os.path.join(work, "stderr.txt"),
    )
    outcome.report = read_report(report)
    return outcome


def manifest(env: dict, work: str) -> dict:
    """Numerical stack, CPUs and source revision; no timing data."""
    out = run_child(
        [sys.executable, "-c", _MANIFEST_SNIPPET], env=env, cwd=ROOT, timeout=60.0,
        stdout_path=os.path.join(work, "manifest.txt"),
        stderr_path=os.path.join(work, "manifest.err"),
    )
    if out.returncode != 0:
        raise RuntimeError(f"numerical-stack probe failed: {out.stderr.strip()}")
    stack = json.loads(out.stdout)
    stack["git_commit"] = None  # a checkout without .git has no commit to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        stack["git_commit"] = commit.stdout.strip() if commit.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gztower", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    stack["source_sha256"] = digest.hexdigest()
    stack["cpu_count"] = os.cpu_count()
    stack["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    return stack


def measure_setup(workload: str, tower: str, env: dict, work: str) -> list[float]:
    """Fresh-interpreter import of gztower.cli plus parsing the input tower."""
    argv = [sys.executable, "-c", _SETUP_SNIPPET]
    if workload != "gen-d32":
        argv.append(tower)
    times = []
    for _ in range(SETUP_REPEATS):
        out = run_child(argv, env=env, cwd=ROOT, timeout=60.0,
                        stdout_path=os.path.join(work, "setup.txt"),
                        stderr_path=os.path.join(work, "setup.err"))
        if out.returncode != 0:
            raise RuntimeError(f"setup import failed: {out.stderr.strip()}")
        times.append(out.wall_s)
    return times


def _signature(outcome: Outcome) -> tuple:
    return (outcome.report, outcome.stdout)


def timed_run(workload: str, seed: int, seconds: float, work: str, start: float) -> dict:
    env = child_env()
    tower = os.path.join(work, "tower16.json")
    write_tower(seed, TOWER_SCALE[workload], tower)
    stack = manifest(env, work)  # also fills the bytecode caches
    setup = measure_setup(workload, tower, env, work)

    deadline = start + RUN_BUDGET_S
    cmds = commands(workload, seed, tower, work)
    sets = []
    t_begin = time.perf_counter()
    while True:
        t_set = time.perf_counter()
        sets.append([(kind, run_gz(argv, report, work, env, deadline)) for kind, argv, report in cmds])
        now = time.perf_counter()
        last = now - t_set
        if len(sets) >= MIN_SETS and now - t_begin + last > seconds:
            break
        if now + last > deadline:
            break

    classified = [[classify(kind, out) for kind, out in s] for s in sets]
    failed = sum(c.failed for cs in classified for c in cs)
    attempted = sum(len(s) for s in sets)
    first = [_signature(out) for _, out in sets[0]]
    identical = all([_signature(out) for _, out in s] == first for s in sets[1:])
    true, total = pass_ratio([c for cs in classified for c in cs])

    walls = [sum(out.wall_s for _, out in s) for s in sets]
    cpus = [sum(out.cpu_s for _, out in s) for s in sets]
    rss = [max(out.maxrss_kb for _, out in s) / 1024.0 for s in sets]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
        "pass_ratio": true / total,
    }
    basis = {
        "wall_s": f"median of {len(walls)} sets",
        "cpu_s": f"median of {len(cpus)} sets",
        "peak_rss_mb": f"median of {len(rss)} sets",
        "setup_s": f"median of {len(setup)} fresh imports",
        "pass_ratio": f"{true} of {total} verdicts true; fail_ratio {1 - true / total:.6g}",
    }

    print(f"workload {workload}  seed {seed}  sets {len(sets)}  commands {attempted}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {metrics[name]:<14.6g} {unit:<6} {basis[name]}")
    _print_gate(classified, identical)
    print("manifest " + json.dumps(stack, sort_keys=True))
    return {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def _print_gate(classified, identical: bool) -> None:
    verdicts: dict[str, dict[str, int]] = {}
    for cs in classified:
        for c in cs:
            for label, value in c.verdicts:
                counts = verdicts.setdefault(label, {})
                counts[value] = counts.get(value, 0) + 1
            if c.failed:
                print(f"  FAILED {c.status}: {c.detail}")
    for label, counts in sorted(verdicts.items()):
        print(f"  verdict {label:<20} " + " ".join(f"{k}={n}" for k, n in sorted(counts.items())))
    print(f"  reports byte-identical across repeats: {identical}")


def _run_inprocess(cli, cmds) -> tuple[list[tuple[str, Outcome]], float]:
    results = []
    t0 = time.perf_counter()
    for kind, argv, report in cmds:
        _remove(report)
        out, err = io.StringIO(), io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:  # a crash is classified by the gate, not raised
                traceback.print_exc()
                code = None
        outcome = Outcome(code, out.getvalue(), err.getvalue(), read_report(report),
                          wall_s=time.perf_counter() - c0)
        results.append((kind, outcome))
    return results, time.perf_counter() - t0


def _probe_seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def traced_run(workload: str, seed: int, work: str) -> dict:
    env = child_env()
    tower = os.path.join(work, "tower16.json")
    write_tower(seed, TOWER_SCALE[workload], tower)
    stack = manifest(env, work)
    os.environ.pop("GZ_SEED", None)
    sys.path.insert(0, SRC)
    from gztower import cli, matcore, regularity
    from gztower.matcore import Tolerance
    from gztower.tower import tower_from_json

    cmds = commands(workload, seed, tower, work)
    plain, plain_wall = _run_inprocess(cli, cmds)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = _run_inprocess(cli, cmds)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall

    # Per-criterion probes through the public functions, untraced.
    probe_path = cmds[0][2] if workload == "gen-d32" else tower
    with open(probe_path, encoding="utf-8") as handle:
        T = tower_from_json(handle.read())
    metrics["regularity.differentials.s"] = _probe_seconds(regularity.is_sreg_differentials, T)
    metrics["regularity.centralizers.s"] = _probe_seconds(regularity.is_sreg_centralizers, T)
    metrics["regularity.tangents.s"] = _probe_seconds(regularity.is_sreg_tangents, T)
    metrics["regularity.theta.s"] = _probe_seconds(
        lambda: [matcore.spectra_disjoint(T.level(n), T.level(n + 1)) for n in range(1, T.depth)]
    )

    extra: list[tuple[str, Outcome]] = []
    metrics["cli.check.serial_sum_s"] = 0.0
    metrics["cli.check.blas1_wall_s"] = 0.0
    if workload == "check-d16":
        tol = Tolerance()
        metrics["cli.check.serial_sum_s"] = sum(
            _probe_seconds(fn, T, tol, 0) for fn in cli.CHECKS.values()
        )
        kind, argv, report = cmds[0]
        pinned = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = run_gz(argv, report, work, pinned, time.perf_counter() + 120.0)
        metrics["cli.check.blas1_wall_s"] = out.wall_s
        extra.append((kind, out))

    runs = plain + traced + extra
    classified = [classify(kind, out) for kind, out in runs]
    failed = sum(c.failed for c in classified)
    identical = [_signature(o) for _, o in plain] == [_signature(o) for _, o in traced]

    print(f"workload {workload}  seed {seed}  traced in-process run")
    for name, unit in PER_LAYER.items():
        label = "  (computed from shapes)" if name in COMPUTED else ""
        print(f"  {name:<40} {metrics[name]:<14.6g} {unit}{label}")
    print("  not measured from outside (until in-program tracing lands):")
    for item in NOT_MEASURED:
        print(f"    - {item}")
    _print_gate([classified], identical)
    print("manifest " + json.dumps(stack, sort_keys=True))
    return {
        "correct": failed == 0 and identical,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()},
    }


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonnegative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gztower", "cli.py")):
        print(f"error: the gztower sources are missing under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

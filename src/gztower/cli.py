"""Batch command-line interface.

Four subcommands: ``gen`` (seeded tower generation), ``check`` (named
verification suites), ``flow`` (conservation tables along exact flows)
and ``orbit`` (abelian-action orbit reports).  Reports are deterministic
given (seed, flags) and embed the tool version, seed, RNG algorithm and
tolerances.  Exit codes are a stable contract:

0 pass, 1 fail, 2 generation failure, 3 indeterminate/not-applicable,
64 usage error, 65 malformed input data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

# cmd_check runs no pool.  The name stays bound only because the tracer in
# bench/spans.py rebinds it; drop it together with that rebinding.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .action import (
    a_act,
    a_act_stepwise,
    flow_stack,
    params_from_json,
    random_params,
)
from .gz import (
    GZIndex,
    PowerTable,
    gz_indices,
    level_traces,
    power_table,
    stack_traces,
)
from .matcore import MAX_DIM, Tolerance, _pow2_scaled, _unit_exponent, tangent_values
from .regularity import report_number, residual_ratios, residual_verdict, sreg_report
from .symplectic import lagrangian_check, match_residual
from .tower import (
    RNG_ALGORITHM,
    GenerationError,
    Tower,
    random_theta_tower,
    tower_from_json,
    tower_to_json,
    unit_disk,
)

TOOL_NAME = "gztower"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_GENERATION = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64
EXIT_DATA = 65

DEFAULT_T_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
_FLOWED_TIMES = tuple(t for t in DEFAULT_T_GRID if t != 0.0)
# Residual tolerances for identity-style checks (drift, commutativity,
# bracket/form consistency) and for the exact gluing identity.
DRIFT_RTOL = 1e-8
MATCH_RTOL = 1e-12
CORNER_RTOL = 1e-12
# Random (Z1, Z2, n) draws the gluing check evaluates.
MATCH_DRAWS = 200


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@dataclass
class CheckResult:
    name: str
    property: str
    passed: str  # "true" | "false" | "indeterminate"
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


# The suite's members in registration order, which is the default suite's.
CHECKS: dict[str, Callable[[Tower, Tolerance, int], CheckResult]] = {}


def _member(name: str, tag: str) -> Callable:
    """Register a check member: ``name`` and property ``tag`` wrap its ``(passed, details)``."""

    def register(check: Callable[[Tower, Tolerance, int], tuple[str, dict]]):
        def run(T: Tower, tol: Tolerance, seed: int) -> CheckResult:
            return CheckResult(name, tag, *check(T, tol, seed))

        CHECKS[name] = run
        return run

    return register


def _tri(ok: bool) -> str:
    return "true" if ok else "false"


def _passed(verdict: str) -> str:
    return verdict if verdict in ("true", "false") else "indeterminate"


def _norm2(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def _stream(seed: int, key: int) -> np.random.Generator:
    """The PCG64 stream of ``seed`` at spawn key ``key``: each use of the seed draws from its own."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


def _level_norms(T: Tower) -> np.ndarray:
    """Spectral norm of every level, indexed by level (entry 0 unused); past the double range, inf.

    Where the plain norm is not finite, an entry's modulus overflowed: the
    level is scaled by a power of two first, exactly, and the norm back.
    """
    norms = np.zeros(T.depth + 1)
    for n in range(1, T.depth + 1):
        norms[n] = _norm2(T.level(n))
        if not np.isfinite(norms[n]):
            e = _unit_exponent(T.level(n))
            with np.errstate(over="ignore"):
                norms[n] = np.ldexp(_norm2(_pow2_scaled(T.level(n), e)), e)
    return norms


def _level_pair_bounds(T: Tower) -> np.ndarray:
    """``1 + ||X_k||^(i + k)`` at ``[k - 1, i - 1]``: the bound of every pair of levels i <= k."""
    levels = np.arange(1, T.depth + 1)
    with np.errstate(over="ignore"):
        return 1.0 + _level_norms(T)[levels, None] ** np.add.outer(levels, levels)


def _verdict(worst: float, rtol: float, left_out: int, what: str, details: dict) -> str:
    """:func:`residual_verdict`, with a note in ``details`` of how many of ``what`` are left out."""
    verdict = residual_verdict(worst, rtol, left_out)
    if verdict == "indeterminate":
        details["note"] = (
            f"{left_out} of {what} that overflows double precision and were not "
            "compared; regenerate the tower at a smaller scale"
        )
    return verdict


def _exit_code(*verdicts: str) -> int:
    """A command's exit code: 1 if a verdict is false, else 3 if one is not true, else 0."""
    if "false" in verdicts:
        return EXIT_FAIL
    return EXIT_INDETERMINATE if set(verdicts) - {"true"} else EXIT_PASS


def _name(idx: GZIndex) -> str:
    return f"f[{idx.i},{idx.j}]"


def _certified(T: Tower, left: np.ndarray, right: np.ndarray, k: int):
    """The worst certified ratio ``left[b] right[a] / (1 + ||X_n||^(i + n))`` over the pairs a <= b + k.

    ``left[b] right[a]`` (Frobenius norms) bounds ``|tr(R_b G_a)|``; n and i
    are the levels of b and a in :func:`gz_indices` order.  Level n's block
    pairs its n rows b with every a up to ``first_n + n + k``, one outer
    product.  Returns the worst ratio (NaN propagates), as ``np.argmax``
    over every pair finds it, with its pair ``(a, b)`` (None when it is 0),
    the number of pairs left out and of all pairs.
    """
    bounds, m = _level_pair_bounds(T), len(left)
    level_of = np.repeat(np.arange(T.depth), np.arange(1, T.depth + 1))
    worst, pair, left_out = 0.0, None, 0
    for n in range(1, T.depth + 1):
        first = n * (n - 1) // 2
        end = first + n + k
        if end == 0:
            continue
        below = np.tri(n, end, first + k, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.where(below, np.outer(left[first : first + n], right[:end]), 0.0)
        ratios, out = residual_ratios(values, np.where(below, bounds[n - 1, level_of[:end]], 1.0))
        left_out += out
        at = int(np.argmax(ratios))
        # The first block to reach the worst ratio holds np.argmax's pair; NaN beats every number.
        if ratios.flat[at] > worst or (np.isnan(ratios.flat[at]) and not np.isnan(worst)):
            worst, pair = float(ratios.flat[at]), (at % end, first + at // end)
    return worst, pair, left_out, (m + k) * (m + k + 1) // 2


@_member("commute", "observable-family-poisson-commutativity")
def _check_commute(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    idxs = gz_indices(T.depth)
    # Each pair a < b once, certified at b's level n by ||G_a|| ||[X_n, G_b]||.
    commutators, norms = power_table(T).residuals()
    worst, pair, left_out, pairs = _certified(T, commutators, norms, -1)
    details = {
        "max_bracket_ratio": report_number(worst),
        "worst_pair": None if pair is None else [_name(idxs[a]) for a in pair],
        "pairs": pairs,
        "rtol": DRIFT_RTOL,
    }
    return _verdict(worst, DRIFT_RTOL, left_out, f"{pairs} pairs have a bound", details), details


# Conserve flows each level i < N by one combination P_i of its generators,
# normalized to ||P_i||_2 = 1, at the nonzero times of DEFAULT_T_GRID.
CONSERVE_TIME_UNIT = (
    "each level i < N flows P_i = sum_j c_j j X_i^(j-1), with complex weights c "
    "drawn from the seed, at unit speed: ||P_i||_2 = 1"
)
# At unit speed kappa(exp(-t P_i)) <= exp(2 |t|), so the best drift double
# precision can certify is about eps * exp(2 max |t|) (1.2e-14), far below
# DRIFT_RTOL: a drift above the rtol is a conservation failure.
CONSERVE_CONDITIONING_FLOOR = float(
    np.finfo(float).eps * math.exp(2.0 * max(abs(t) for t in DEFAULT_T_GRID))
)


def _conserve_generators(table: PowerTable, seed: int) -> list[np.ndarray]:
    """The unit-norm flow generator P_i of every level i < N, seeded.

    z(X_i), which the generators j X_i^(j-1) span, is abelian, so P_i is
    one flow of the abelian group; if any generator's flow broke
    conservation, a generic combination's would too, with probability one.
    """
    rng = _stream(seed, 4)
    gens = []
    # Top-level flows act trivially, so the top level's generators are never read.
    for Gi in table.gradients[:-1]:
        i = len(Gi)
        c = rng.standard_normal(i) + 1j * rng.standard_normal(i)
        with np.errstate(all="ignore"):
            P = np.tensordot(c, Gi, axes=1)
            # A non-finite P leaves its flows non-finite, and they fail.
            gens.append(P / _norm2(P) if np.isfinite(P).all() else P)
    return gens


@_member("conserve", "flow-conservation")
def _check_conserve(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    N = T.depth
    if N < 2:
        return "true", {"note": "no flow directions at depth 1"}
    table = power_table(T)
    base = table.traces()
    shared = {
        "t_grid": list(DEFAULT_T_GRID),
        "time_unit": CONSERVE_TIME_UNIT,
        "drift_rtol": DRIFT_RTOL,
        "corner_rtol": CORNER_RTOL,
    }
    if not np.all(np.isfinite(base)):
        return "indeterminate", {
            **shared,
            "note": "the tower's own traces overflow double precision, so there is "
            "nothing to conserve; regenerate the tower at a smaller scale",
        }
    # Every level's generator at every nonzero time of the grid is one stack:
    # one expm and one conjugation.  exp(0) = I exactly, so t = 0 returns the
    # tower itself (drift and corner residual 0) and is not flowed.  Slices
    # [6 (i - 1), 6 i) are level i's.
    tops, errors = flow_stack(table.top, _conserve_generators(table, seed), _FLOWED_TIMES)
    ok = np.array([e is None for e in errors])
    levels = np.repeat(np.arange(1, N), len(_FLOWED_TIMES))
    flow_failed = not ok.all()
    finite = np.ones(len(tops), dtype=bool)
    drifts, corners = [], []
    for k in range(1, N):
        # Level i's flows conjugate by diag(exp(-t P_i), I): at a level k > i
        # the corner is a similarity of X_k whatever P_i is, so its traces
        # measure only conditioning.  One pass reads level k on levels i >= k.
        read = ok & (levels >= k)
        flowed = tops[read, :k, :k]
        traces = level_traces(flowed)
        finite[read] &= np.isfinite(traces).all(axis=1)
        level_base = base[k * (k - 1) // 2 : k * (k + 1) // 2]
        with np.errstate(over="ignore", invalid="ignore"):
            drift = np.abs(traces - level_base) / (1.0 + np.abs(level_base))
        drifts.append(np.max(drift, initial=0.0))
        # A trace of a level-k flow past its power bound overflowed; under it, it is a fault.
        own = levels[read] == k
        flow_failed = flow_failed or _bound_overflows(flowed[own & ~finite[read]])
        Xk = T.level(k)
        residual = float(np.abs(flowed[own] - Xk).max(initial=0.0))
        corners.append(residual / (1.0 + float(np.abs(Xk).max())))
    # np.max propagates NaN, so a non-finite drift cannot pass the rtol.
    worst_drift = float(np.max(drifts))
    worst_corner = float(np.max(corners))
    details = {
        "max_relative_drift": report_number(worst_drift),
        "max_corner_residual": report_number(worst_corner),
        **shared,
        "conditioning_floor": CONSERVE_CONDITIONING_FLOOR,
    }
    if flow_failed:
        passed = "indeterminate"
        details["note"] = (
            "a flow overflowed double precision or its conjugator was singular; "
            "regenerate the tower at a smaller scale"
        )
    else:
        drift = residual_verdict(worst_drift, DRIFT_RTOL)
        passed = _tri(drift == residual_verdict(worst_corner, CORNER_RTOL) == "true")
    return passed, details


@_member("sreg", "strong-regularity-criteria")
def _check_sreg(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    report = sreg_report(T, tol)
    return _passed(report.verdict), report.to_json_dict()


@_member("lagrangian", "abelian-orbit-lagrangian-structure")
def _check_lagrangian(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    report = lagrangian_check(T, tol)
    return _passed(report.verdict), report.to_json_dict()


def _match_draws(T: Tower, seed: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The gluing check's seeded draws, stacked per drawn level n: ``(n, Z1, Z2, scales)``.

    A draw takes n, then Z1 and Z2 as two ``random_entries``, the stream of
    one (4, n, n) normal draw; its scale is ``1 + ||X_(n+1)|| ||Z1|| ||Z2||``.
    """
    rng = _stream(seed, 1)
    drawn: dict[int, list[np.ndarray]] = {}
    for _ in range(MATCH_DRAWS):
        n = int(rng.integers(1, T.depth))
        drawn.setdefault(n, []).append(rng.standard_normal((4, n, n)))
    norms, groups = _level_norms(T), []
    for n, draws in sorted(drawn.items()):
        g = np.array(draws)
        Z = unit_disk(g[:, 0::2], g[:, 1::2])
        sigma = np.linalg.norm(Z, 2, axis=(2, 3))
        with np.errstate(over="ignore"):
            groups.append((n, Z[:, 0], Z[:, 1], 1.0 + norms[n + 1] * sigma[:, 0] * sigma[:, 1]))
    return groups


@_member("match", "level-gluing-consistency")
def _check_match(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    if T.depth < 2:
        return "true", {"note": "gluing needs two levels"}
    # One residual pass per drawn level; draws whose scale overflows are left out.
    with np.errstate(over="ignore", invalid="ignore"):
        folds = [
            residual_ratios(match_residual(T, Z1, Z2, n), scales)
            for n, Z1, Z2, scales in _match_draws(T, seed)
        ]
    # np.max propagates NaN, so a non-finite residual cannot pass the rtol.
    worst = float(np.max(np.concatenate([ratios for ratios, _ in folds]), initial=0.0))
    left_out = sum(out for _, out in folds)
    details = {
        "draws": MATCH_DRAWS,
        "max_residual_ratio": report_number(worst),
        "rtol": MATCH_RTOL,
    }
    what = f"{MATCH_DRAWS} draws have a scale"
    return _verdict(worst, MATCH_RTOL, left_out, what, details), details


@_member("consistent", "bracket-form-consistency")
def _check_consistent(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    # The glued form pairs G_b of level k with a G_a of level <= k through
    # the k x k corner of G_b's tangent, at X_N as at X_k; the two differ by
    # tr(D_b G_a), D_b the corner at X_N minus [X_k, G_b].  They agree only
    # through the gluing of the level forms; that level independence is what
    # the check tests, by ||D_b|| ||G_a|| over every pair a <= b.
    table = power_table(T)
    gaps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, G in enumerate(table.gradients, 1):
            D = tangent_values(table.top, G)[:, :k, :k] - tangent_values(table.top[:k, :k], G)
            gaps.append(np.linalg.norm(D, axis=(1, 2)))
    worst, _, left_out, pairs = _certified(T, np.concatenate(gaps), table.residuals()[1], 0)
    details = {"max_mismatch_ratio": report_number(worst), "rtol": DRIFT_RTOL}
    return _verdict(worst, DRIFT_RTOL, left_out, f"{pairs} pairs have a bound", details), details


@_member("anchor", "anchor-injective-on-level-covectors")
def _check_anchor(T: Tower, tol: Tolerance, seed: int) -> tuple[str, dict]:
    # The anchor map is injective on level-n covectors exactly when the joint
    # commutant of levels n..N is trivial; each embeds into that of levels
    # N-1..N, which criterion 2 tests last.  Strong regularity is what makes
    # that expected for every n < N; without it there is no claim to test.
    sreg = sreg_report(T, tol)
    if sreg.verdict != "true":
        return "indeterminate", {
            "joint_kernels_trivial": None,
            "note": f"tower is not strongly regular (sreg verdict: {sreg.verdict}); "
            "no anchor kernel was tested",
        }
    return _tri(sreg.by_centralizers), {"joint_kernels_trivial": sreg.by_centralizers}


def _report_envelope(command: str, seed: int, tol: Tolerance, source: str) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "seed": seed,
        "rng": {"algorithm": RNG_ALGORITHM},
        "tolerance": {"rel": tol.rel, "abs": tol.abs},
        "input": source,
    }


def _emit(path: Optional[str], text: str) -> None:
    """Write ``text`` to ``path`` atomically, or to stdout when no path is given.

    The file gets the mode ``open()`` would give it under the umask, not
    mkstemp's owner-only 0600.
    """
    if path is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".gz-tmp-")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(data: dict, indent: Optional[int] = 2) -> str:
    return json.dumps(data, sort_keys=True, indent=indent) + "\n"


def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _resolve_seed(flag_value: Optional[int]) -> int:
    # Documented precedence: flag > GZ_SEED environment variable > 0.
    if flag_value is not None:
        return flag_value
    env = os.environ.get("GZ_SEED")
    if env is None:
        return 0
    try:
        return _NONNEGATIVE(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"GZ_SEED: {exc}") from exc


def _load_tower(path: str) -> Tower:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return tower_from_json(handle.read())
    except OSError as exc:
        raise _DataError(f"cannot read tower file {path}: {exc}") from exc
    except ValueError as exc:
        raise _DataError(f"malformed tower file {path}: {exc}") from exc


class _DataError(Exception):
    pass


def _parse_suite(raw: Optional[list[str]]) -> list[str]:
    if not raw:
        return list(CHECKS)
    names: list[str] = []
    for chunk in raw:
        names.extend(s.strip() for s in chunk.split(",") if s.strip())
    if not names:
        raise _UsageError(f"empty suite; available: {', '.join(CHECKS)}")
    for name in names:
        if name not in CHECKS:
            raise _UsageError(
                f"unknown check {name!r}; available: {', '.join(CHECKS)}"
            )
    return names


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        T = random_theta_tower(args.depth, args.seed, args.scale, args.tol)
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    _emit(args.out, tower_to_json(T) + "\n")
    report = sreg_report(T, args.tol)
    # theta holds: random_theta_tower accepted every level with the same
    # spectra_disjoint test, at the same tolerance, on these same corners.
    print(
        f"depth={T.depth} seed={args.seed} scale={args.scale} "
        f"sreg={report.verdict} theta=true -> {args.out}"
    )
    return EXIT_PASS


def cmd_check(args: argparse.Namespace) -> int:
    suite = _parse_suite(args.suite)
    T = _load_tower(args.tower)

    # Members run one after another on this thread: on two cores a pool was
    # slower, its workers contending with the BLAS threads for the cores.
    # Those that read the sreg report run first, so that its peak memory does
    # not stack on the power table the others keep cached.
    order = sorted(dict.fromkeys(suite), key=lambda n: n not in ("sreg", "lagrangian", "anchor"))
    done = {name: CHECKS[name](T, args.tol, args.seed) for name in order}
    results = [done[name] for name in suite]

    report = _report_envelope("check", args.seed, args.tol, args.tower)
    report["suite"] = suite
    report["checks"] = [r.to_json_dict() for r in results]
    _emit(args.out, _dump_json(report))
    for r in results:
        print(f"[{r.passed}] {r.name}")
    return _exit_code(*(r.passed for r in results))


def _bound_overflows(tops: np.ndarray) -> bool:
    """Whether a tower of an (s, N, N) stack has an infinite power bound.

    ``N max(1, ||X_N||_F)^N`` bounds every trace and every power entry; a
    non-finite trace under a finite bound is a fault, not an overflow.
    """
    N = tops.shape[-1]
    with np.errstate(over="ignore"):
        return bool(np.isinf(N * np.maximum(1.0, np.linalg.norm(tops, axis=(1, 2))) ** N).any())


def _traces(table: PowerTable, tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The traces of the table's tower and of an (s, N, N) stack of tops, in gz_indices order.

    Raises OverflowError where a non-finite trace sits under an infinite
    power bound; under a finite one, the trace fails the drift.
    """
    base, values = table.traces(), stack_traces(tops)
    for stack, traces in ((table.top[None], base[None]), (tops, values)):
        if _bound_overflows(stack[~np.isfinite(traces).all(axis=1)]):
            raise OverflowError("the observables overflow the representable range")
    return base, values


def _flow_table(
    T: Tower, idx: GZIndex, grid: list[float]
) -> tuple[list[tuple[float, np.ndarray]], np.ndarray]:
    """Every observable along the flow, and each one's worst relative drift.

    Values follow :func:`gz_indices` order; base and flowed values come
    from the same evaluator, so a flow that returns the input tower shows
    exactly zero drift.  Raises OverflowError when a base or flowed trace
    leaves the double range.
    """
    table = power_table(T)
    tops, errors = flow_stack(table.top, [table.gradient(idx)], grid)
    # The first failure in grid order is the one a flow-by-flow loop meets.
    for exc in errors:
        if exc is not None:
            raise exc
    base, values = _traces(table, tops)
    # np.max propagates NaN, so a non-finite value cannot pass.
    with np.errstate(over="ignore", invalid="ignore"):
        drift = np.max(np.abs(values - base) / (1.0 + np.abs(base)), axis=0, initial=0.0)
    return list(zip(grid, values)), drift


def cmd_flow(args: argparse.Namespace) -> int:
    T = _load_tower(args.tower)
    try:
        idx = GZIndex(args.i, args.j)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if idx.i > T.depth:
        raise _UsageError(f"index level {idx.i} exceeds tower depth {T.depth}")
    grid = args.t_grid
    try:
        rows, drift = _flow_table(T, idx, grid)
    except (OverflowError, np.linalg.LinAlgError) as exc:
        print(f"flow not computable in double precision: {exc}", file=sys.stderr)
        return _exit_code("indeterminate")
    names = [_name(k) for k in gz_indices(T.depth)]
    max_drift = float(np.max(drift))
    passed = residual_verdict(max_drift, args.drift_tol)

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(["t"] + names)
        for t, values in rows:
            writer.writerow([f"{t:.17g}"] + [_format_complex(z) for z in values.tolist()])
        writer.writerow([])
        writer.writerow(["max_relative_drift"] + [f"{d:.17g}" for d in drift.tolist()])
        text = buf.getvalue()
    else:
        report = _report_envelope("flow", args.seed, args.tol, args.tower)
        report.update(
            {
                "i": idx.i,
                "j": idx.j,
                "t_grid": grid,
                "functions": names,
                "values": [
                    {"t": t, "f": [[z.real, z.imag] for z in values.tolist()]}
                    for t, values in rows
                ],
                "max_relative_drift": dict(zip(names, drift.tolist())),
                "drift_tol": args.drift_tol,
                "passed": passed == "true",
            }
        )
        # A flow report is a t-grid by observables table of numbers: indented,
        # half of its bytes would be whitespace.
        text = _dump_json(report, indent=None)
    _emit(args.out, text)

    if args.emit_plot_data:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(["t"] + [f"abs({n})" for n in names])
        for t, values in rows:
            writer.writerow([f"{t:.17g}"] + [f"{abs(z):.17g}" for z in values.tolist()])
        _emit(args.emit_plot_data, buf.getvalue())

    print(f"max relative drift {max_drift:.3e} over t grid {grid}")
    return _exit_code(passed)


def cmd_orbit(args: argparse.Namespace) -> int:
    T = _load_tower(args.tower)

    if args.params:
        try:
            with open(args.params, "r", encoding="utf-8") as handle:
                samples = [params_from_json(handle.read())]
        except OSError as exc:
            raise _DataError(f"cannot read params file {args.params}: {exc}") from exc
        except ValueError as exc:
            raise _DataError(f"malformed params file {args.params}: {exc}") from exc
        if samples[0].n > T.depth + 1:
            raise _DataError(f"params level {samples[0].n} too deep for tower depth {T.depth}")
    else:
        rng = _stream(args.seed, 2)
        samples = [random_params(rng, T.depth, args.param_scale) for _ in range(args.samples)]

    try:
        acted_samples = [(a, a_act(a, T)) for a in samples]
    except (OverflowError, np.linalg.LinAlgError) as exc:
        print(f"action not computable in double precision: {exc}", file=sys.stderr)
        return _exit_code("indeterminate")
    # --samples 0 leaves the stack empty.
    acted_tops = np.array([acted.top for _, acted in acted_samples]).reshape(-1, T.depth, T.depth)
    try:
        base, acted_traces = _traces(power_table(T), acted_tops)
    except OverflowError as exc:
        print(f"orbit not computable in double precision: {exc}", file=sys.stderr)
        return _exit_code("indeterminate")
    levels = np.array([k.i for k in gz_indices(T.depth)])
    # The observables of a level whose bound overflows are left out.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 1.0 + _level_norms(T)[levels] ** levels
        drifts, left_out = residual_ratios(np.abs(acted_traces - base), bound)
    worst_drift = float(np.max(drifts, initial=0.0))
    report = _report_envelope("orbit", args.seed, args.tol, args.tower)
    what = f"{len(levels)} observables have a bound"
    invariance = _verdict(worst_drift, DRIFT_RTOL, left_out, what, report)
    if left_out:
        report["observables_left_out"] = left_out
    gaps, scales = [], []
    # Every sample acts at the same level, so one shuffled order serves them all.
    if args.permute_factors and samples and samples[0].n >= 3:
        rng = _stream(args.seed, 3)
        order = gz_indices(samples[0].n - 1)
        perm = [order[int(i)] for i in rng.permutation(len(order))]
        for a, acted in acted_samples:
            gaps.append(np.abs(a_act_stepwise(a, T, perm).top - acted.top).max())
            scales.append(1.0 + np.abs(acted.top).max())
    # Without --permute-factors nothing is compared, and the gap reads true.
    ratios, gaps_left_out = residual_ratios(np.array(gaps), np.array(scales))
    worst_perm = float(np.max(ratios, initial=0.0))
    permute = residual_verdict(worst_perm, DRIFT_RTOL, gaps_left_out)

    lag = lagrangian_check(T, args.tol)
    report.update(
        {
            "samples": len(samples),
            "max_observable_drift": report_number(worst_drift),
            "observable_invariance_ok": invariance != "false",
            "permuted_application_gap": worst_perm if args.permute_factors else None,
            "lagrangian": lag.to_json_dict(),
        }
    )
    _emit(args.out, _dump_json(report))
    print(f"observable drift {worst_drift:.3e}; lagrangian verdict: {lag.verdict}")
    return _exit_code(invariance, permute, lag.verdict)


def _checked(kind: type, ok: Callable, need: str) -> Callable[[str], object]:
    """An argparse type: a value that fails ``ok`` is a usage error before any work starts."""

    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {need}")

    return parse


# NaN fails every comparison, so no bound below admits it.
_DEPTH = _checked(int, lambda d: 1 <= d <= MAX_DIM, f"an integer in 1..{MAX_DIM}")
_NONNEGATIVE = _checked(int, lambda n: n >= 0, "a nonnegative integer")
_SCALE = _checked(float, lambda x: 0 < x < math.inf, "a positive finite number")
_TOL = _checked(float, lambda x: 0 <= x < math.inf, "a nonnegative finite number")
_FINITE = _checked(float, math.isfinite, "a finite number")
_T_GRID = _checked(
    lambda text: [float(x) for x in text.split(",")],
    lambda ts: all(map(math.isfinite, ts)),
    "a comma-separated list of finite numbers",
)
# An empty output path, one in a missing directory, or one naming a directory
# is refused before any work.
_OUT = _checked(
    str,
    lambda p: p != "" and os.path.isdir(os.path.dirname(p) or ".") and not os.path.isdir(p),
    "a file path in an existing directory",
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument(
            "--seed", type=_NONNEGATIVE, default=None, help="RNG seed (default: GZ_SEED or 0)"
        )
        p.add_argument("--tol-rel", type=_TOL, default=1e-9, help="relative rank tolerance")
        p.add_argument("--tol-abs", type=_TOL, default=1e-12, help="absolute rank tolerance")

    g = sub.add_parser("gen", help="generate a spectrum-disjoint random tower")
    common(g)
    g.add_argument("--depth", type=_DEPTH, required=True)
    g.add_argument(
        "--scale",
        type=_SCALE,
        default=0.5,
        help="entry magnitude bound; <= 0.5 keeps depth-6 flows well-conditioned, "
        "use ~0.3 beyond depth 6",
    )
    g.add_argument("--out", "-o", type=_OUT, required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check", help="run verification suites on a tower file")
    common(c)
    c.add_argument("tower")
    c.add_argument(
        "--suite",
        action="append",
        help=f"comma-separated check names (default: all of {', '.join(CHECKS)})",
    )
    c.add_argument("--out", "-o", type=_OUT, default=None)
    c.set_defaults(func=cmd_check)

    f = sub.add_parser("flow", help="conservation table along one exact flow")
    common(f)
    f.add_argument("tower")
    f.add_argument("--i", type=int, required=True)
    f.add_argument("--j", type=int, required=True)
    f.add_argument("--t-grid", type=_T_GRID, default=list(DEFAULT_T_GRID))
    f.add_argument("--drift-tol", type=_TOL, default=DRIFT_RTOL)
    f.add_argument("--format", choices=("json", "csv"), default="json")
    f.add_argument("--out", "-o", type=_OUT, default=None)
    f.add_argument("--emit-plot-data", type=_OUT, default=None, help="write |f| series CSV here")
    f.set_defaults(func=cmd_flow)

    o = sub.add_parser("orbit", help="abelian-action orbit report")
    common(o)
    o.add_argument("tower")
    o.add_argument("--params", default=None, help="JSON parameter file (default: random)")
    o.add_argument("--samples", type=_NONNEGATIVE, default=3)
    o.add_argument("--param-scale", type=_FINITE, default=0.3)
    o.add_argument(
        "--permute-factors",
        action="store_true",
        help="also apply parameters one at a time, in one shuffled order shared by "
        "every sample, and report the gap",
    )
    o.add_argument("--out", "-o", type=_OUT, default=None)
    o.set_defaults(func=cmd_orbit)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.seed = _resolve_seed(args.seed)
        args.tol = Tolerance(rel=args.tol_rel, abs=args.tol_abs)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

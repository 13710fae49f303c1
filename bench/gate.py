"""Child-process runner, output gate and verdict classifier.

Every ``gz`` command the benchmark runs passes through :func:`classify`,
which turns the command's exit code, standard streams and report into a
status and a list of verdicts:

* ``ok``: the report parsed and the exit code agrees with its verdicts
  under the README's exit-code table (0 pass, 1 fail, 3 indeterminate);
* ``timeout``, ``traceback``, ``no_report``, ``bad_report`` and
  ``exit_mismatch`` are failures.  A failed command counts every verdict
  it should have produced as ``failed``, never as ``false``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

# Mirrors the residual tolerance of ``gz orbit`` (``cli.DRIFT_RTOL``); the
# orbit report records the permuted-application gap but not the cut.
ORBIT_DRIFT_RTOL = 1e-8

# Number of verdicts each command kind contributes to the pass ratio.
VERDICT_COUNT = {"check": 7, "gen": 2, "orbit": 3, "flow": 1}

_GEN_LINE = re.compile(r"sreg=(\S+) theta=(\S+) -> ")


@dataclass
class Outcome:
    """What one finished ``gz`` command left behind."""

    returncode: Optional[int]
    stdout: str
    stderr: str
    report: Optional[str]  # report text, None when no report was written
    timed_out: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0


@dataclass
class Classified:
    status: str
    verdicts: list[tuple[str, str]] = field(default_factory=list)
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def run_child(argv, *, env, cwd, timeout, stdout_path, stderr_path) -> Outcome:
    """Run one child to completion and read its resource usage with ``wait4``.

    The child is killed after ``timeout`` seconds.  Its exit is first
    observed without reaping it (``waitid`` with ``WNOWAIT``), so the timer
    can never signal a recycled process id.
    """
    lock = threading.Lock()
    state = {"done": False, "timed_out": False}
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)

        def kill() -> None:
            with lock:
                if not state["done"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["done"] = True
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(stderr_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Outcome(
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        report=None,
        timed_out=state["timed_out"],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def read_report(path: Optional[str]) -> Optional[str]:
    if path is None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _tri(flag: bool) -> str:
    return "true" if flag else "false"


def _check_verdicts(report: dict) -> tuple[list[tuple[str, str]], int]:
    checks = report["checks"]
    verdicts = [(f"check.{c['name']}", str(c["passed"])) for c in checks]
    if len(verdicts) != VERDICT_COUNT["check"]:
        raise ValueError(f"expected {VERDICT_COUNT['check']} checks, got {len(verdicts)}")
    values = [v for _, v in verdicts]
    if any(v not in ("true", "false", "indeterminate") for v in values):
        raise ValueError(f"unknown check verdict in {values}")
    expected = 1 if "false" in values else (3 if "indeterminate" in values else 0)
    return verdicts, expected


def _gen_verdicts(tower: dict, stdout: str) -> tuple[list[tuple[str, str]], int]:
    if not isinstance(tower["top"], list) or int(tower["depth"]) != len(tower["top"]):
        raise ValueError("generated tower file is malformed")
    match = _GEN_LINE.search(stdout)
    if match is None:
        raise ValueError("no 'sreg=... theta=...' summary line")
    return [("gen.sreg", match.group(1)), ("gen.theta", match.group(2))], 0


def _orbit_verdicts(report: dict, returncode: int) -> tuple[list[tuple[str, str]], int]:
    invariance = bool(report["observable_invariance_ok"])
    lagrangian = str(report["lagrangian"]["verdict"])
    gap = report["permuted_application_gap"]
    permute_ok = gap is None or gap <= ORBIT_DRIFT_RTOL
    if not invariance or lagrangian == "false" or not permute_ok:
        expected = 1
    elif lagrangian == "not applicable":
        expected = 3
    else:
        expected = 0
    verdicts = [
        ("orbit.invariance", _tri(invariance)),
        ("orbit.lagrangian", lagrangian),
        ("orbit.exit_code", _tri(returncode == 0)),
    ]
    return verdicts, expected


def _flow_verdicts(report: dict) -> tuple[list[tuple[str, str]], int]:
    passed = report["passed"]
    if not isinstance(passed, bool):
        raise ValueError(f"flow 'passed' must be a boolean, got {passed!r}")
    return [("flow.passed", _tri(passed))], 0 if passed else 1


def classify(kind: str, outcome: Outcome) -> Classified:
    """Gate one command: failure status, or its verdicts when it is sound."""
    if kind not in VERDICT_COUNT:
        raise ValueError(f"unknown command kind {kind!r}")

    def failure(status: str, detail: str) -> Classified:
        verdicts = [(f"{kind}.{k}", "failed") for k in range(VERDICT_COUNT[kind])]
        return Classified(status, verdicts, detail)

    if outcome.timed_out:
        return failure("timeout", "killed after its time limit")
    if "Traceback (most recent call last)" in outcome.stderr:
        last = outcome.stderr.strip().splitlines()[-1]
        return failure("traceback", last)
    if outcome.report is None:
        return failure("no_report", f"exit code {outcome.returncode}, no report")
    try:
        data = json.loads(outcome.report)
        if kind == "gen":
            verdicts, expected = _gen_verdicts(data, outcome.stdout)
        elif kind == "check":
            verdicts, expected = _check_verdicts(data)
        elif kind == "orbit":
            verdicts, expected = _orbit_verdicts(data, outcome.returncode)
        else:
            verdicts, expected = _flow_verdicts(data)
    except (ValueError, KeyError, TypeError) as exc:
        return failure("bad_report", f"{type(exc).__name__}: {exc}")
    if outcome.returncode != expected:
        return failure(
            "exit_mismatch",
            f"exit code {outcome.returncode}, report implies {expected}",
        )
    return Classified("ok", verdicts)


def pass_ratio(classified: list[Classified]) -> tuple[int, int]:
    """(verdicts that read "true", all verdicts), failures included."""
    verdicts = [v for c in classified for _, v in c.verdicts]
    return sum(v == "true" for v in verdicts), len(verdicts)

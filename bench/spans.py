"""Outside-in span tracer for the gztower layers.

The tracer wraps the public functions of each layer from outside the
program.  ``from .x import f`` copies the binding into the importing
module, so every public function a layer defines (its ``__all__``
functions, plus ``joint_commutant_kernel`` and the ``cli`` entry points)
is rebound in every loaded gztower module that holds it, the defining
module included, so calls inside a layer are seen too.
``Tower.__init__``, ``Tower.level`` and the ``cli.CHECKS`` members are
wrapped as well, and ``cli.ThreadPoolExecutor`` is replaced by a subclass that
records how long each check member waited for a worker.

Spans live on per-thread stacks and are aggregated per name in memory;
nothing is written until :meth:`Tracer.metrics` is called at the end.
For each span the tracer records wall time (``perf_counter``) and the
calling thread's CPU time (``thread_time``), which excludes BLAS helper
threads; self time is the span's wall time minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "gz", "matcore", "regularity", "action", "symplectic", "tower")
CHECK_MEMBERS = ("commute", "conserve", "sreg", "lagrangian", "match", "consistent", "anchor")


class _Stat:
    __slots__ = ("calls", "wall", "self_wall", "self_busy", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.self_wall = 0.0
        self.self_busy = 0.0
        self.errors = 0


class _ThreadState:
    def __init__(self) -> None:
        # Each frame holds [child wall, child busy] of the open span.
        self.stack: list[list[float]] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.active: dict[str, int] = defaultdict(int)
        self.gen_sylvester_tests = 0
        self.gen_levels = 0
        self.op_bytes_max = 0
        self.op_bytes_sum = 0
        self.sreg_margin_min = math.inf
        self.sreg_decisive = 0


def _operator_bytes(name: str, args: tuple, result) -> int:
    """Bytes of the dense operator a public matcore call forms, from shapes.

    Computed, not measured: 16 bytes per complex128 entry of the operator
    the call builds or decomposes.  ``rank_split`` is covered by the
    ``stack_flat`` it calls and ``null_space`` by ``op_matrix`` or
    ``kernel_basis``, so neither is counted twice.
    """
    if name in ("matcore.ad_operator", "matcore.op_matrix", "matcore.stack_flat"):
        return int(result.nbytes)
    if name == "matcore.kernel_basis":
        shape = getattr(args[0], "shape", ())
        return 16 * math.prod(shape) if len(shape) == 2 else 0
    if name == "matcore.sylvester_min_singular":
        na, nb = args[0].shape[0], args[1].shape[0]
        return 16 * (na * nb) ** 2
    return 0


_OPERATOR_FUNCS = {
    "matcore.ad_operator",
    "matcore.op_matrix",
    "matcore.stack_flat",
    "matcore.kernel_basis",
    "matcore.sylvester_min_singular",
}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._restore: list[tuple[object, str, object]] = []
        self.queue_waits: list[float] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn):
        perf, cpu = time.perf_counter, time.thread_time
        state = self._state
        operator = name in _OPERATOR_FUNCS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            frame = [0.0, 0.0]
            st.stack.append(frame)
            st.active[name] += 1
            failed = False
            t0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                c1 = cpu()
                t1 = perf()
                st.active[name] -= 1
                st.stack.pop()
                wall, busy = t1 - t0, c1 - c0
                if st.stack:
                    parent = st.stack[-1]
                    parent[0] += wall
                    parent[1] += busy
                stat = st.stats[name]
                stat.calls += 1
                stat.wall += wall
                stat.self_wall += wall - frame[0]
                stat.self_busy += busy - frame[1]
                stat.errors += failed
            if operator:
                nbytes = _operator_bytes(name, args, result)
                st.op_bytes_max = max(st.op_bytes_max, nbytes)
                st.op_bytes_sum += nbytes
            self._observe(st, name, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _observe(st: _ThreadState, name: str, args, kwargs, result) -> None:
        if name == "matcore.spectra_disjoint" and st.active["tower.random_theta_tower"]:
            st.gen_sylvester_tests += 1
        elif name == "tower.random_theta_tower":
            depth = args[0] if args else kwargs["depth"]
            st.gen_levels += depth - 1
        elif name == "regularity.sreg_report":
            margins = [m for m in result.margins if m is not None and math.isfinite(m)]
            if margins:
                st.sreg_margin_min = min(st.sreg_margin_min, min(margins))
            st.sreg_decisive += result.verdict != "indeterminate"

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer of the already imported ``gztower`` package."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "gztower" or name.startswith("gztower.")
        }
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"gztower.{layer}"]
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_")
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._rebind(mod, attr, wrapped[id(obj)])

        tower_cls = modules["gztower.tower"].Tower
        self._rebind(tower_cls, "__init__", self.wrap("tower.Tower", tower_cls.__init__))
        self._rebind(tower_cls, "level", self.wrap("tower.level", tower_cls.level))

        cli = modules["gztower.cli"]
        for member, fn in list(cli.CHECKS.items()):
            self._restore.append((cli.CHECKS, member, fn))
            cli.CHECKS[member] = self.wrap(f"cli.check.{member}", fn)
        self._rebind(cli, "ThreadPoolExecutor", self._timed_pool(cli.ThreadPoolExecutor))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _timed_pool(self, base):
        waits = self.queue_waits

        class TimedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                submitted = time.perf_counter()

                def started(*a, **k):
                    waits.append(time.perf_counter() - submitted)
                    return fn(*a, **k)

                return super().submit(started, *args, **kwargs)

        return TimedPool

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans of every thread into per-layer numbers.

        Numbers a workload does not exercise read 0.
        """
        stats: dict[str, _Stat] = defaultdict(_Stat)
        for st in self._states:
            for name, s in st.stats.items():
                agg = stats[name]
                agg.calls += s.calls
                agg.wall += s.wall
                agg.self_wall += s.self_wall
                agg.self_busy += s.self_busy
                agg.errors += s.errors

        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for n, s in stats.items() if n.split(".", 1)[0] == layer]
            self_s = sum(s.self_wall for s in mine)
            busy_s = sum(s.self_busy for s in mine)
            out[f"{layer}.calls"] = sum(s.calls for s in mine)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.busy_s"] = busy_s
            out[f"{layer}.wait_s"] = self_s - busy_s

        def calls(name: str) -> int:
            return stats[name].calls

        def seconds(name: str) -> float:
            return stats[name].wall

        for member in CHECK_MEMBERS:
            out[f"cli.check.{member}.s"] = seconds(f"cli.check.{member}")
        out["cli.check.queue_wait_s"] = sum(self.queue_waits)
        check_wall = seconds("cli.cmd_check")
        member_sum = sum(seconds(f"cli.check.{m}") for m in CHECK_MEMBERS)
        out["cli.check.overlap"] = member_sum / check_wall if check_wall > 0 else 0.0

        for name in ("gz.poisson_bracket", "gz.gz_eval", "matcore.mat_pow", "matcore.mat_exp",
                     "action.flow", "action.a_act", "symplectic.omega_inf",
                     "regularity.sreg_report"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = seconds(name)
        for name in ("matcore.kernel_basis", "matcore.rank_split",
                     "matcore.sylvester_min_singular", "regularity.joint_commutant_kernel",
                     "symplectic.isotropy_check", "symplectic.lagrangian_check",
                     "tower.random_theta_tower"):
            out[f"{name}.s"] = seconds(name)
        out["matcore.ad_operator.calls"] = calls("matcore.ad_operator")
        out["tower.level.calls"] = calls("tower.level")
        out["tower.Tower.calls"] = calls("tower.Tower")

        states = self._states
        out["matcore.operator_bytes_max"] = max((st.op_bytes_max for st in states), default=0)
        out["matcore.dense_op_bytes"] = sum(st.op_bytes_sum for st in states)

        tests = sum(st.gen_sylvester_tests for st in states)
        levels = sum(st.gen_levels for st in states)
        out["tower.accept_ratio"] = levels / tests if tests else 0.0

        actions = calls("action.flow") + calls("action.a_act")
        errors = stats["action.flow"].errors + stats["action.a_act"].errors
        out["action.ok_ratio"] = (actions - errors) / actions if actions else 0.0

        sreg_calls = calls("regularity.sreg_report")
        margin = min((st.sreg_margin_min for st in states), default=math.inf)
        out["regularity.margin_min"] = margin if math.isfinite(margin) else 0.0
        decisive = sum(st.sreg_decisive for st in states)
        out["regularity.decisive_ratio"] = decisive / sreg_calls if sreg_calls else 0.0
        return out

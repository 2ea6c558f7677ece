"""Spans around the public functions of each pccontrol module.

`Tracer.install` wraps every function a module lists in ``__all__`` (and
the public methods of `Subspace` and `RunConfig`) and rebinds the wrapper
under each name that any pccontrol module imported it as, so calls made
inside the package go through the wrapper too.  A span records its name,
start, end, parent span and operation; spans are kept in memory and
written out by `Tracer.write`.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

MODULES = ("core", "subspaces", "functionals", "solvers", "certificates", "models", "config", "cli")
METHODS = {
    "subspaces": {"Subspace": ("coords", "lift", "project", "complement", "contains")},
    "config": {"RunConfig": ("build", "from_file")},
}
_MB = 1024.0 * 1024.0


def _signal_steps(args, kwargs, index: int, key: str) -> int:
    signal = kwargs[key] if key in kwargs else args[index]
    return int(getattr(signal, "shape", (0,))[0])


def _arg(args, kwargs, index: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _dense_map_bytes(name: str, args, kwargs, result) -> int:
    """Bytes of the dense maps a certificate call assembles, from their shapes."""
    if name == "assemble_uc_map":
        return int(result.nbytes)
    if name not in ("observability_constant", "kernel_N", "two_time_check"):
        return 0
    system, grid = _arg(args, kwargs, 0, "system"), _arg(args, kwargs, 1, "grid")
    n, m, N = system.n, system.m, grid.n_steps
    theta = (N * m * n + n * n) * 8  # B* z columns per unit z_T, and z_T -> z(0)
    if name == "kernel_N":
        return theta + (N * m + n) * n * 8  # plus the stacked copy
    G, W = _arg(args, kwargs, 2, "G"), _arg(args, kwargs, 3, "W")
    p = n + G.dim + W.dim
    if name == "two_time_check":
        k_cut = grid.node_index(_arg(args, kwargs, 4, "t_tilde"))
        return k_cut * m * p * 8  # its tilde_T constant is a child span
    kind = _arg(args, kwargs, 4, "kind")
    if kind in ("final_state", "initial_state", "tilde_T"):
        return theta
    cols = p + n * N
    total = (N * m + N * n) * cols * 8
    if kind == "general_initial":
        total += cols * cols * 8
    return total


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        # per span: [name, start, end, parent, operation, steps, dense bytes, under certificates]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.operation = -1

    def _wrap(self, name: str, fn, short: str):
        spans, stack = self.spans, self._stack
        steps_arg = {"forward_solve": (3, "u"), "adjoint_solve": (3, "f")}.get(short)
        cert = name.startswith("certificates.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name
            if short == "observability_constant":
                label = f"{name}[{_arg(args, kwargs, 4, 'kind')}]"
            index = len(spans)
            under_cert = cert or (parent >= 0 and spans[parent][7])
            record = [label, 0.0, 0.0, parent, self.operation, 0, 0, under_cert]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if steps_arg is not None:
                record[5] = _signal_steps(args, kwargs, *steps_arg)
            if cert:
                record[6] = _dense_map_bytes(short, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap and rebind; `uninstall` puts every original back."""
        package = importlib.import_module("pccontrol")
        modules = {m: importlib.import_module(f"pccontrol.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                own = getattr(fn, "__module__", "") == mod.__name__
                if callable(fn) and not isinstance(fn, type) and own:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn, attr))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    label = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(label, raw.__func__, meth))
                    else:
                        wrapped = self._wrap(label, raw, meth)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: Path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4]}) + "\n")


def layer_metrics(tracer: Tracer, n_ops: int, iterations: float, output_mb: float,
                  op_s: float, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from the spans of ``n_ops`` traced operations.

    ``op_s`` is the mean wall time of a traced operation as the caller
    measured it; ``trace.self_share`` is the share of it the self times of
    all spans add up to.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_module: dict[str, float] = {}
    stepping_self = 0.0
    steps = 0
    cert_adjoint = 0
    dense_bytes = 0
    for s, self_s in zip(tracer.spans, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        calls[name] = calls.get(name, 0) + 1
        module = name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + self_s
        if name in ("core.forward_solve", "core.adjoint_solve"):
            stepping_self += self_s
            steps += s[5]
            if name == "core.adjoint_solve" and s[7]:
                cert_adjoint += 1
        dense_bytes += s[6]
    per = 1.0 / max(n_ops, 1)

    def t(name):
        return total.get(name, 0.0) * per

    def c(name):
        return calls.get(name, 0) * per

    # project() calls coords() and lift(), so the layer sums self times
    projection = sum(
        self_s for s, self_s in zip(tracer.spans, own) if s[0].startswith("subspaces.Subspace.")
    ) * per
    applies = c("functionals.apply_quadratic")
    covered = sum(self_by_module.values())
    metrics = {
        "core.stepping_s": (stepping_self * per, "s"),
        "core.step_us": (1e6 * stepping_self / steps if steps else 0.0, "us"),
        "core.forward_solve.calls": (c("core.forward_solve"), "count"),
        "core.adjoint_solve.calls": (c("core.adjoint_solve"), "count"),
        "core.build_propagator_s": (t("core.build_propagator"), "s"),
        "subspaces.orthonormalize_s": (t("subspaces.orthonormalize"), "s"),
        "subspaces.projection_s": (projection, "s"),
        "functionals.apply_quadratic.calls": (applies, "count"),
        "functionals.grad_smooth.calls": (c("functionals.grad_smooth"), "count"),
        "functionals.eval_smooth.calls": (c("functionals.eval_smooth"), "count"),
        "functionals.self_s": (self_by_module.get("functionals", 0.0) * per, "s"),
        "functionals.recover_primal_s": (t("functionals.recover_primal"), "s"),
        "solvers.minimize_s": (t("solvers.minimize"), "s"),
        "solvers.self_s": (self_by_module.get("solvers", 0.0) * per, "s"),
        "solvers.iterations": (iterations, "count"),
        "solvers.applies_per_iter": (applies / iterations if iterations else 0.0, "ratio"),
        "certificates.assemble_uc_map_s": (t("certificates.assemble_uc_map"), "s"),
        "certificates.uc_check_s": (t("certificates.uc_check"), "s"),
    }
    for kind in ("final_state", "initial_state", "general_final", "general_initial"):
        span = f"certificates.observability_constant[{kind}]"
        metrics[f"certificates.obs.{kind}_s"] = (t(span), "s")
    metrics.update({
        "certificates.two_time_check_s": (t("certificates.two_time_check"), "s"),
        "certificates.kernel_N_s": (t("certificates.kernel_N"), "s"),
        "certificates.adjoint_solve.calls": (cert_adjoint * per, "count"),
        "certificates.self_s": (self_by_module.get("certificates", 0.0) * per, "s"),
        "certificates.matrix_mb": (dense_bytes * per / _MB, "MB"),
        "config.build_s": (t("config.RunConfig.build"), "s"),
        "models.make_s": (t("models.make_heat1d") + t("models.make_wave1d"), "s"),
        "cli.emit_report_s": (t("cli.emit_report"), "s"),
        "cli.output_mb": (output_mb, "MB"),
        "trace.op_s": (op_s, "s"),
        "trace.self_share": (covered * per / op_s if op_s else 0.0, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return metrics

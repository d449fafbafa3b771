"""Traced runs: a span around every public q2rep function, counts on the scalar types.

Everything here patches the program from the benchmark's side; no file of
the program changes.  A span is [id, parent id, name, start ns, end ns,
scalar ns, skip ns]: "scalar ns" is time spent directly inside ExtScalar
methods (the scalars layer), "skip ns" is tracer bookkeeping to leave out of
the span's self time.  Spans stay in memory until the operation ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("scalars", "linalg", "algebra", "rep", "diffop", "so4", "models", "reduction", "spectra", "cli")
SID, PARENT, NAME, START, END, SCALAR, SKIP = range(7)
EXT_ARITHMETIC = {
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "inverse", "conjugate", "norm",
}
RADICAL_ARITHMETIC = ("__add__", "__neg__", "__sub__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.outer_ns: Counter = Counter()  # per name, spans with no same-name ancestor
        self.active: Counter = Counter()
        self.methods: dict[str, list[int]] = {}
        self.extra: Counter = Counter()
        self.top_scalar_ns = 0
        self.top_skip_ns = 0
        self.scalar_depth = 0
        self.suspended = 0
        self.caches: dict[str, Any] = {}

    # wrappers ------------------------------------------------------------------

    def _skip(self, ns: int) -> None:
        if self.stack:
            self.stack[-1][SKIP] += ns
        else:
            self.top_skip_ns += ns

    def _span(self, fn: Callable, name: str, pre: Callable | None = None) -> Callable:
        spans, stack, active, calls, outer = self.spans, self.stack, self.active, self.calls, self.outer_ns

        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            if pre is not None:
                t = perf_counter_ns()
                self.suspended += 1
                try:
                    pre(*args, **kwargs)
                finally:
                    self.suspended -= 1
                    self._skip(perf_counter_ns() - t)
            rec = [len(spans), stack[-1][SID] if stack else -1, name, 0, 0, 0, 0]
            spans.append(rec)
            stack.append(rec)
            calls[name] += 1
            active[name] += 1
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
                active[name] -= 1
                if not active[name]:
                    outer[name] += rec[END] - rec[START]

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _scalar_method(self, fn: Callable, key: str) -> Callable:
        """Count every call; time the outermost one and charge it to the open span."""
        cell = self.methods.setdefault(key, [0])
        stack = self.stack

        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            cell[0] += 1
            if self.scalar_depth:
                return fn(*args, **kwargs)
            self.scalar_depth = 1
            t = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t
                self.scalar_depth = 0
                if stack:
                    stack[-1][SCALAR] += dt
                else:
                    self.top_scalar_ns += dt

        return traced

    def _counted_method(self, fn: Callable, key: str) -> Callable:
        cell = self.methods.setdefault(key, [0])

        def counted(*args, **kwargs):
            if not self.suspended:
                cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _matmul_pre(self, a, b) -> None:
        """Work a dense product visits (n*k*m) and the products that are nonzero."""
        k = len(b)
        self.extra["matmul_pairs"] += len(a) * k * (len(b[0]) if k else 0)
        col_nnz = [0] * k
        for row in a:
            for j, x in enumerate(row):
                if x:
                    col_nnz[j] += 1
        self.extra["matmul_useful"] += sum(c * sum(1 for y in row if y) for c, row in zip(col_nnz, b))

    # installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded q2rep module, in every namespace."""
        modules = {n: m for n, m in sys.modules.items() if n == "q2rep" or n.startswith("q2rep.")}
        hooks = {"linalg.matmul": self._matmul_pre}
        wrapped: dict[int, tuple[Any, Callable]] = {}
        for layer in LAYERS:
            mod = modules.get(f"q2rep.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                is_function = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
                if attr.startswith("_") or not is_function or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span(obj, name, hooks.get(name)))
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
        # rebind by identity, so that names imported with "from .x import f" are patched too
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        ext = modules["q2rep.scalars"].ExtScalar
        for attr, obj in list(vars(ext).items()):
            if attr == "__setattr__":
                continue
            if isinstance(obj, classmethod):
                setattr(ext, attr, classmethod(self._scalar_method(obj.__func__, f"ExtScalar.{attr}")))
            elif inspect.isfunction(obj):
                setattr(ext, attr, self._scalar_method(obj, f"ExtScalar.{attr}"))
        radical = modules["q2rep.so4"].Radical
        for attr in RADICAL_ARITHMETIC:
            setattr(radical, attr, self._counted_method(vars(radical)[attr], f"Radical.{attr}"))

    # results -----------------------------------------------------------------------

    def totals(self) -> Counter:
        """Additive totals of one operation; ``count:`` keys must repeat exactly."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: Counter = Counter()
        for s in spans:
            layer = s[NAME].split(".", 1)[0]
            out[f"self_ns:{layer}"] += s[END] - s[START] - child_ns[s[SID]] - s[SCALAR] - s[SKIP]
            out["self_ns:scalars"] += s[SCALAR]
        out["self_ns:scalars"] += self.top_scalar_ns
        checked = set()
        for s in spans:
            if s[NAME] == "linalg.ext_charpoly":
                anc = s[PARENT]
                while anc >= 0 and spans[anc][NAME] != "spectra.eigenvalues_numeric":
                    anc = spans[anc][PARENT]
                if anc >= 0:
                    checked.add(anc)
        out["count:numeric_checked"] = len(checked)
        for name, n in self.calls.items():
            out[f"count:calls:{name}"] = n
        for name, ns in self.outer_ns.items():
            out[f"ns:{name}"] = ns
        for key, cell in self.methods.items():
            out[f"count:{key}"] = cell[0]
        for key, n in self.extra.items():
            out[f"count:{key}"] = n
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[f"count:hits:{name}"] = info.hits
            out[f"count:misses:{name}"] = info.misses
        return out


# per-layer metrics -------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _s(v: Counter, key: str) -> float:
    return v[key] / 1e9


def _ext(v: Counter, names) -> int:
    return sum(v[f"count:ExtScalar.{n}"] for n in names)


def _hit_ratio(v: Counter, name: str) -> float:
    hits = v[f"count:hits:{name}"]
    return _ratio(hits, hits + v[f"count:misses:{name}"])


VERIFY, SPECTRA, ORACLE = "verify-sweep", "spectra-export", "oracle-sweep"
# name, unit, better, value from the summed totals, (end-to-end metric and workload it should move)
PER_LAYER: list[tuple[str, str, str, Callable[[Counter], float], str]] = [
    ("scalars.ext_new", "count", "lower", lambda v: _ext(v, ["__init__"]),
     f"wall_s and high_p_s on {VERIFY}, then {SPECTRA}"),
    ("scalars.ext_ops", "count", "lower", lambda v: _ext(v, EXT_ARITHMETIC),
     f"wall_s and high_p_s on {VERIFY}, then {SPECTRA}"),
    ("scalars.ext_bool", "count", "lower", lambda v: _ext(v, ["__bool__"]),
     f"wall_s and high_p_s on {VERIFY}, then {SPECTRA}"),
    ("scalars.self_s", "s", "lower", lambda v: _s(v, "self_ns:scalars"),
     f"wall_s and high_p_s on {VERIFY}, then {SPECTRA}"),
    ("linalg.matmul_calls", "count", "lower", lambda v: v["count:calls:linalg.matmul"],
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.matmul_s", "s", "lower", lambda v: _s(v, "ns:linalg.matmul"),
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.matmul_pairs", "count", "lower", lambda v: v["count:matmul_pairs"],
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.matmul_useful_share", "ratio", "higher",
     lambda v: _ratio(v["count:matmul_useful"], v["count:matmul_pairs"]),
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.solve_s", "s", "lower", lambda v: _s(v, "ns:linalg.solve"),
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.charpoly_calls", "count", "lower", lambda v: v["count:calls:linalg.ext_charpoly"],
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.charpoly_s", "s", "lower", lambda v: _s(v, "ns:linalg.ext_charpoly"),
     f"high_p_s on {VERIFY} and {SPECTRA}; about zero on {ORACLE}"),
    ("linalg.self_s", "s", "lower", lambda v: _s(v, "self_ns:linalg"),
     f"high_p_s on {VERIFY} and {SPECTRA}"),
    ("rep.rep_matrix_calls", "count", "lower", lambda v: v["count:calls:rep.rep_matrix"],
     f"wall_s on {VERIFY} and high_p_s on {SPECTRA}"),
    ("rep.rep_matrix_hit_ratio", "ratio", "higher", lambda v: _hit_ratio(v, "rep.rep_matrix"),
     f"wall_s on {VERIFY} and high_p_s on {SPECTRA}"),
    ("rep.rep_matrix_s", "s", "lower", lambda v: _s(v, "ns:rep.rep_matrix"),
     f"wall_s on {VERIFY} and high_p_s on {SPECTRA}"),
    ("rep.gram_matrix_s", "s", "lower", lambda v: _s(v, "ns:rep.gram_matrix"),
     f"wall_s on {VERIFY} and high_p_s on {SPECTRA}"),
    ("rep.change_of_basis_s", "s", "lower", lambda v: _s(v, "ns:rep.change_of_basis"),
     f"wall_s on {VERIFY} and high_p_s on {SPECTRA}"),
    ("rep.self_s", "s", "lower", lambda v: _s(v, "self_ns:rep"),
     f"wall_s on {VERIFY} and high_p_s on {SPECTRA}"),
    ("algebra.jacobi_s", "s", "lower", lambda v: _s(v, "ns:algebra.check_graded_jacobi"),
     f"low_p_s on {VERIFY} (a fixed cost per operation)"),
    ("algebra.bracket_calls", "count", "lower",
     lambda v: v["count:calls:algebra.bracket"] + v["count:calls:algebra.bracket_basis"],
     f"low_p_s on {VERIFY} (a fixed cost per operation)"),
    ("algebra.self_s", "s", "lower", lambda v: _s(v, "self_ns:algebra"),
     f"low_p_s on {VERIFY}"),
    ("so4.identification_s", "s", "lower", lambda v: _s(v, "ns:so4.identification_lines"),
     f"wall_s on {VERIFY} only"),
    ("so4.casimir_s", "s", "lower", lambda v: _s(v, "ns:so4.casimir"),
     f"wall_s on {VERIFY} only"),
    ("so4.radical_ops", "count", "lower",
     lambda v: sum(v[f"count:Radical.{n}"] for n in RADICAL_ARITHMETIC),
     f"wall_s on {VERIFY} only"),
    ("so4.self_s", "s", "lower", lambda v: _s(v, "self_ns:so4"),
     f"wall_s on {VERIFY} only"),
    ("diffop.compose_calls", "count", "lower", lambda v: v["count:calls:diffop.compose"],
     f"wall_s on {ORACLE}, then the sphaleron operations of {SPECTRA}"),
    ("diffop.compose_s", "s", "lower", lambda v: _s(v, "ns:diffop.compose"),
     f"wall_s on {ORACLE}, then the sphaleron operations of {SPECTRA}"),
    ("diffop.to_matrix_s", "s", "lower", lambda v: _s(v, "ns:diffop.to_matrix"),
     f"wall_s on {ORACLE}, then the sphaleron operations of {SPECTRA}"),
    ("diffop.realization_hit_ratio", "ratio", "higher", lambda v: _hit_ratio(v, "diffop.realization"),
     f"wall_s on {ORACLE}, then the sphaleron operations of {SPECTRA}"),
    ("diffop.self_s", "s", "lower", lambda v: _s(v, "self_ns:diffop"),
     f"wall_s on {ORACLE}, then the sphaleron operations of {SPECTRA}"),
    ("models.expression_matrix_s", "s", "lower", lambda v: _s(v, "ns:models.expression_matrix"),
     f"high_p_s on {SPECTRA} and wall_s on {ORACLE}"),
    ("models.raw_matrix_s", "s", "lower", lambda v: _s(v, "ns:models.raw_matrix"),
     f"high_p_s on {SPECTRA} and wall_s on {ORACLE}"),
    ("models.closed_form_s", "s", "lower",
     lambda v: _s(v, "ns:models.closed_form_spectrum") + _s(v, "ns:models.closed_form_blocks"),
     f"high_p_s on {SPECTRA} and wall_s on {ORACLE}"),
    ("models.self_s", "s", "lower", lambda v: _s(v, "self_ns:models"),
     f"high_p_s on {SPECTRA} and wall_s on {ORACLE}"),
    ("reduction.derived_matrix_calls", "count", "lower", lambda v: v["count:calls:reduction.derived_matrix"],
     f"wall_s and setup_s on {ORACLE} only"),
    ("reduction.derived_matrix_s", "s", "lower", lambda v: _s(v, "ns:reduction.derived_matrix"),
     f"wall_s and setup_s on {ORACLE} only"),
    ("reduction.self_s", "s", "lower", lambda v: _s(v, "self_ns:reduction"),
     f"wall_s on {ORACLE} only"),
    ("spectra.decompose_s", "s", "lower", lambda v: _s(v, "ns:spectra.decompose"),
     f"failed_share and high_p_s on {SPECTRA}; zero elsewhere"),
    ("spectra.numeric_blocks", "count", "lower", lambda v: v["count:calls:spectra.eigenvalues_numeric"],
     f"failed_share and high_p_s on {SPECTRA}; zero elsewhere"),
    ("spectra.numeric_s", "s", "lower", lambda v: _s(v, "ns:spectra.eigenvalues_numeric"),
     f"failed_share and high_p_s on {SPECTRA}; zero elsewhere"),
    ("spectra.charpoly_checked_share", "ratio", "higher",
     lambda v: _ratio(v["count:numeric_checked"], v["count:calls:spectra.eigenvalues_numeric"]),
     f"failed_share and high_p_s on {SPECTRA}; zero elsewhere"),
    ("spectra.self_s", "s", "lower", lambda v: _s(v, "self_ns:spectra"),
     f"high_p_s on {SPECTRA}"),
    ("cli.self_s", "s", "lower", lambda v: _s(v, "self_ns:cli"),
     f"high_p_s on {SPECTRA} (argument parsing, JSON and CSV formatting)"),
]

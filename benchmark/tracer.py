"""Layer spans and counters for the traced benchmark run.

The wrappers are installed from outside the package.  A wrapped function is
replaced under every name that holds it in every loaded ``euclid4`` module:
modules bind imported names when they are imported, so patching only the
defining module would miss most calls.

Spans (name, start, end, parent, op id) and counters stay in memory; the
caller writes them out once the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# Functions timed with a span, as (module, attribute); "Class.method" names a
# method.  Every public function that linalg defines is added at install
# time, so that linalg is one layer however its functions change.
SPAN_TARGETS = (
    ("fields", "build_biquadratic"),
    ("fields", "build_cyclic_quartic"),
    ("fields", "registry"),
    ("elements", "NFElement.__mul__"),
    ("units", "unit_data"),
    ("units", "sqrt_in_ring"),
    ("units", "verify_unit_data"),
    ("intmath", "poly_roots_mod_p"),
    ("intmath", "mult_order"),
    ("residues", "degree_one_primes_above"),
    ("residues", "unit_order_mod_p2"),
    ("admissible", "search_pair"),
    ("admissible", "check_conditions"),
    ("admissible", "brute_force_surjectivity"),
    ("admissible", "find_prime_element"),
    ("certs", "verify_certificate_json"),
    ("certs", "certificate_to_json"),
    ("cli", "reproduce_row"),
)

# Functions called too often for a span each; only their calls are counted.
COUNT_TARGETS = (
    ("intmath", "is_prime"),
    ("residues", "splits_completely"),
)


def span_name(module: str, attr: str) -> str:
    """``elements.NFElement.__mul__`` is reported as ``elements.mul``."""
    if attr == "NFElement.__mul__":
        return "elements.mul"
    return f"{module}.{attr}"


def _phi_p2(p: int, a: int) -> int:
    return 1 if a == 0 else p ** (a - 1) * (p - 1)


class Tracer:
    """Span recorder and counter sink for one process."""

    def __init__(self):
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self._open: Counter = Counter()
        self._stack: list[list] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_op = array("i")
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "units.sqrt_in_ring": self._hook_sqrt,
            "admissible.brute_force_surjectivity": self._hook_oracle,
            "admissible.find_prime_element": self._hook_prime_element,
            "residues.degree_one_primes_above": self._hook_primes_above,
            "admissible.search_pair": self._hook_search,
        }

    # -- hooks that turn arguments and results into counters ---------------

    def _hook_sqrt(self, args, result, exc):
        if exc is None and result is not None:
            self.extra["units.sqrt_in_ring.hits"] += 1

    def _hook_oracle(self, args, result, exc):
        if exc is None:
            _spec, _units, P1, P2, a1, a2 = args[:6]
            self.extra["admissible.brute_force_surjectivity.elements"] += (
                _phi_p2(P1.p, a1) * _phi_p2(P2.p, a2)
            )

    def _hook_prime_element(self, args, result, exc):
        if exc is not None and type(exc).__name__ == "BoundExceeded":
            self.extra["admissible.find_prime_element.bound_exceeded"] += 1

    def _hook_primes_above(self, args, result, exc):
        if self._open["admissible.search_pair"]:
            self.extra["admissible.search_pair.primes"] += 1

    def _hook_search(self, args, result, exc):
        if exc is None:
            self.extra["admissible.search_pair.certs"] += 1

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        hook = self._hooks.get(name)
        stack, opened = self._stack, self._open
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        s_name, s_start, s_end = self._span_name, self._span_start, self._span_end
        s_parent, s_op = self._span_parent, self._span_op
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            opened[name] += 1
            index = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                s_end[index] = end
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                opened[name] -= 1
                if hook is not None:
                    hook(args, result, exc)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target under every name that refers to it.  A target
        the package no longer defines is skipped, so its metrics read 0."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "euclid4" or n.startswith("euclid4."))]
        linalg = importlib.import_module("euclid4.linalg")
        spans = SPAN_TARGETS + tuple(
            ("linalg", name) for name, value in vars(linalg).items()
            if inspect.isfunction(value) and value.__module__ == linalg.__name__
            and not name.startswith("_")
        )
        for targets, make in ((spans, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for module_name, attr in targets:
                module = importlib.import_module(f"euclid4.{module_name}")
                cls_name, _, fn_name = attr.rpartition(".")
                # A method is patched in its class (both __mul__ and __rmul__).
                owners = [getattr(module, cls_name)] if cls_name else modules
                original = getattr(owners[0] if cls_name else module, fn_name, None)
                if original is None:
                    continue
                wrapper = make(span_name(module_name, attr), original)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, key, value))
                            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """A snapshot of the counters, to diff between passes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "extra": dict(self.extra),
        }

    def write_spans(self, path: str) -> None:
        """Write the span names, then one JSON line per span:
        [name index, start, end, parent span index or -1, op id]."""
        names = self._names
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            for i in range(len(self._span_start)):
                fh.write(
                    f"[{self._span_name[i]},{self._span_start[i]!r},"
                    f"{self._span_end[i]!r},{self._span_parent[i]},"
                    f"{self._span_op[i]}]\n"
                )


def diff_totals(after: dict, before: dict) -> dict:
    """Per-key difference of two ``Tracer.totals`` snapshots."""
    out = {}
    for kind, values in after.items():
        base = before.get(kind, {})
        out[kind] = {k: v - base.get(k, 0) for k, v in values.items()}
    return out

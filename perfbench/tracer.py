"""Spans around the public functions of each abelcover layer.

The tracer replaces each traced function in every abelcover module
namespace that binds it (cli and exponents import names from divisors
and group_core), so calls between modules are seen as well as calls from
the benchmark.  Spans (name, start, end, parent) are kept in memory and
reduced at the end of a pass: a span's self time is its duration minus
the time its direct children cover.  pairing_u runs millions of times, so
it is not wrapped; its counters are read through the public cache_info().
"""

from __future__ import annotations

import contextlib
import sys
import time

TRACED = (
    "cli.main",
    "cover.validate",
    "group_core.dual_group",
    "group_core.intersection_data",
    "divisors.enumerate_nonspecial",
    "divisors.is_nonspecial",
    "divisors.orbit",
    "divisors.chi_action",
    "dedekind.phi_exact",
    "exponents.exponent_table",
    "exponents.thomae_exponent",
    "polykernel.build_pchichi",
    "polykernel.solve_polexist",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.enumerated_divisors = 0
        self.phi_keys: set[tuple[int, int, int]] = set()
        self.table_pairs = 0
        self.polexist_max_d = 0

    def install(self) -> None:
        """Wrap every traced function wherever an abelcover module binds
        it.  Call once, after importing abelcover."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "abelcover" or name.startswith("abelcover.")]
        for label in TRACED:
            module_name, attr = label.split(".")
            original = getattr(sys.modules[f"abelcover.{module_name}"], attr)
            wrapper = self._wrap(label, original)
            for mod in modules:
                bound = [k for k, v in vars(mod).items() if v is original]
                for key in bound:
                    setattr(mod, key, wrapper)

    def _open(self, label: str) -> tuple[int, int]:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, label: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (self._ids[label], start, end, parent)

    def _wrap(self, label: str, fn):
        observe = {
            "divisors.enumerate_nonspecial": self._observe_enumerate,
            "dedekind.phi_exact": self._observe_phi,
            "exponents.exponent_table": self._observe_table,
            "polykernel.solve_polexist": self._observe_polexist,
        }.get(label)

        def traced(*args, **kwargs):
            idx, parent = self._open(label)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, label, start)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        """A span for a block of benchmark code, such as one op."""
        idx, parent = self._open(label)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, parent, label, start)

    def _observe_enumerate(self, args, result) -> None:
        self.enumerated_divisors += len(result)

    def _observe_phi(self, args, result) -> None:
        key = args[0]
        self.phi_keys.add((key.d, key.h, key.s))

    def _observe_table(self, args, result) -> None:
        self.table_pairs += len(result.entries)

    def _observe_polexist(self, args, result) -> None:
        self.polexist_max_d = max(self.polexist_max_d, result.d)

    def summary(self) -> dict[str, float]:
        """calls, inclusive seconds (.s) and self seconds (.self_s) per
        traced label, plus the counters the wrappers observed.  Call when
        no span is open."""
        children = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = {}
        for label in TRACED:
            out[f"{label}.calls"] = 0
            out[f"{label}.s"] = 0.0
            out[f"{label}.self_s"] = 0.0
        for idx, (name, start, end, _) in enumerate(self.spans):
            label = self.names[name]
            if label in TRACED:
                out[f"{label}.calls"] += 1
                out[f"{label}.s"] += (end - start) / 1e9
                out[f"{label}.self_s"] += (end - start - children[idx]) / 1e9
        out["divisors.enumerate_nonspecial.divisors"] = \
            self.enumerated_divisors
        seconds = out["divisors.enumerate_nonspecial.s"]
        out["divisors.enumerate_nonspecial.divisors_per_s"] = \
            self.enumerated_divisors / seconds if seconds else 0.0
        out["dedekind.phi_exact.distinct_keys"] = len(self.phi_keys)
        out["dedekind.phi_exact.max_d"] = max(
            (k[0] for k in self.phi_keys), default=0)
        out["exponents.pairs"] = self.table_pairs
        out["polykernel.solve_polexist.max_d"] = self.polexist_max_d
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_ns,end_ns\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{self.names[name]},{start},{end}\n")

"""Output checks for every op, run by run.py on the outputs a worker
wrote, so that neither the checks nor their data count in the measured
process.

Each check returns None when the output is right and a short reason when
it is not.  The expected values come from the plan (counts and digests)
and from model.CoverModel, never from abelcover.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from model import CoverModel, assembly_w_degree, poly_degree, poly_from_roots


def check_cli(expect: dict, model: CoverModel | None, code: int,
              stdout: str) -> str | None:
    kind = expect["type"]
    if kind == "rejected":
        if code != 2:
            return f"rejected selector exited {code}, expected 2"
        error = json.loads(stdout).get("error", {})
        if error.get("kind") != "not-nonspecial":
            return f"rejected selector reported {error!r}"
        return None
    if code != 0:
        return f"exit code {code}: {stdout[:200]!r}"
    if kind == "enumerate":
        return _check_enumerate(expect, model, stdout)
    if kind == "table":
        return _check_table(expect, model, json.loads(stdout))
    raise ValueError(f"unknown expectation {kind!r}")


def _check_enumerate(expect: dict, model: CoverModel,
                     stdout: str) -> str | None:
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != expect["sha256"]:
        return f"stdout digest {digest[:16]} differs from the reference"
    out = json.loads(stdout)
    rows = out["divisors"]
    if out["count"] != expect["count"] or len(rows) != expect["count"]:
        return f"{out['count']} divisors, expected {expect['count']}"
    if out["count"] % model.n or out["orbit_count"] != out["count"] // model.n:
        return f"orbit_count {out['orbit_count']} for {out['count']} " \
               f"divisors under a free action of order {model.n}"
    if out["empty"] != (not rows):
        return "empty marker disagrees with the listing"
    previous = None
    orbit_sizes: dict[int, int] = {}
    for i, row in enumerate(rows):
        beta = tuple(row["beta"])
        if row["index"] != i or row["p"] != 1:
            return f"row {i} has index {row['index']} and p {row['p']}"
        if previous is not None and beta <= previous:
            return f"row {i} breaks the strict lexicographic order"
        if not model.is_nonspecial(beta):
            return f"row {i} fails the counting condition"
        label = row["orbit"]
        if label not in orbit_sizes and label != len(orbit_sizes):
            return f"orbit {label} is not numbered by first appearance"
        orbit_sizes[label] = orbit_sizes.get(label, 0) + 1
        previous = beta
    if any(size != model.n for size in orbit_sizes.values()):
        return "an orbit does not have n members"
    return None


def _check_table(expect: dict, model: CoverModel, out: dict) -> str | None:
    if out["divisor"]["beta"] != expect["beta"] or out["divisor"]["p"] != 1:
        return f"table is for divisor {out['divisor']}"
    if out["theta_exponent"] != 8 * model.m:
        return f"theta exponent {out['theta_exponent']} != 8m"
    if out["detC_exponent"] != 4 * model.m:
        return f"detC exponent {out['detC_exponent']} != 4m"
    entries = [row["exponent"] for row in out["pairs"]]
    if len(entries) != model.sites * (model.sites - 1) // 2:
        return f"{len(entries)} pairs for {model.sites} sites"
    if any(e % 2 for e in entries):
        return "an exponent is odd"
    if sum(entries) != model.degree_identity():
        return f"exponents sum to {sum(entries)}, the degree identity " \
               f"gives {model.degree_identity()}"
    return None


def check_kernel(model: CoverModel, chi: tuple, line: str) -> str | None:
    """The solution as the worker wrote it, one JSON line: d = t_chi,
    e = t_conj, f_0 as the product of (z - lambda) and f_1 as f_0 times
    the sum of u/o over (z - lambda), both over the active branch sites,
    the degree bounds, and an assembly of w-degree at most e."""
    d, e = model.t[chi], model.t[model.conjugate(chi)]
    solution = json.loads(line)
    if (solution["d"], solution["e"]) != (d, e):
        return f"(d, e) = ({solution['d']}, {solution['e']}), " \
               f"expected ({d}, {e})"
    polys = [[Fraction(c) for c in p] for p in solution["polys"]]
    if len(polys) != d + 1:
        return f"{len(polys)} polynomials for d = {d}"
    active = [(v, Fraction(u, o)) for v, u, o in
              zip(model.values, model.u[chi], model.orders) if u > 0]
    roots = [v for v, _ in active]
    if polys[0] != poly_from_roots(roots):
        return "f_0 is not the product over the active branch values"
    f1 = [Fraction(0)] * len(roots)
    for j, (_, weight) in enumerate(active):
        for k, c in enumerate(poly_from_roots(roots[:j] + roots[j + 1:])):
            f1[k] += weight * c
    if polys[1] != f1:
        return "f_1 is not f_0 times the weighted sum of 1/(z - lambda)"
    for l, coeffs in enumerate(polys):
        if poly_degree(coeffs) > d + e - l:
            return f"f_{l} has degree above d+e-{l}"
    w_degree = assembly_w_degree(polys)
    if w_degree > e:
        return f"assembly has w-degree {w_degree} > e = {e}"
    return None

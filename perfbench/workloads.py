"""Seeded input generation for the three workloads.

A plan is a list of cover documents and a fixed list of ops, each op
carrying what its output is checked against.  The seed picks the branch
values, the document order and the sampled selectors; it never changes how many ops of each kind a run makes, so
runs with different seeds do the same amount of work.  For the same
reason the share of tables selectors that fail the counting condition is
fixed at one in five per cover; the seed picks which ones.  Selector vectors
are drawn by rejection sampling with the benchmark's own counting
condition (model.py), so no enumeration runs inside the timed window.

Why each workload exists, and which layer it stresses:

  enumerate    CLI `enumerate` over a ladder of covers with many sites
               and small groups; the divisor search and the orbit
               labelling loop (orbit -> chi_action -> is_nonspecial).
  tables       CLI `exponents` with explicit weight vectors, one in
               five failing the counting condition; exponent_table,
               thomae_exponent, intersection data and warm small-d
               phi_exact.  It never calls enumerate_nonspecial.
  kernel       library build_pchichi for every nontrivial character of
               covers with many sites; the exact Gauss-Jordan work of
               polykernel, reached by no other workload.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from model import CoverModel

WORKLOADS = ("enumerate", "tables", "kernel")

# name -> (group, elements); elements listed once per branch point
COVERS = {
    "z2x16": ([2], [[1]] * 16),
    "z2x12": ([2], [[1]] * 12),
    "z7x7": ([7], [[1]] * 7),
    "z6x6": ([6], [[1]] * 6),
    "z3x9": ([3], [[1]] * 9),
    "z4x8": ([4], [[1]] * 8),
    "mixed4": ([4], [[1], [1], [3], [3], [2], [2]]),
    "klein10": ([2, 2], [[1, 0]] * 4 + [[0, 1]] * 4 + [[1, 1]] * 2),
    "z4z4x6": ([4, 4], [[1, 0], [3, 0], [0, 1], [0, 3], [1, 1], [3, 3]]),
    **{f"z2x{b}": ([2], [[1]] * b) for b in (32, 36, 40, 44, 48)},
    **{f"z3x{b}": ([3], [[1]] * b) for b in (18, 21, 24)},
    **{f"z4x{b}": ([4], [[1]] * b) for b in (12, 16)},
    "z5x10": ([5], [[1]] * 10),
}

# CLI `enumerate` output of each cover: divisor count and the sha256 of
# stdout, recorded from the library as first benchmarked.  Branch values
# and document order do not reach this output, so the digest is the same
# for every seed, and a changed digest means changed output bytes.
ENUMERATED = {
    "z2x16": (12870, "6d80dda016165469160ccddef17aea31c302f70cfb1bbceaf88e4177b33a5e01"),
    "z2x12": (924, "3e71f76902cfcf0967415cf4d3ecc83d7378513b60899d939fe80dca907eee54"),
    "z7x7": (5040, "e3a65d780160ad54d419b41e2be7ad7ac248883b6850d5ff77786b43132e827b"),
    "z6x6": (720, "bc959502fcaed03e1f5fcb1f49d7d9fcf04fcb10ace80d33477e493598e0417b"),
    "z3x9": (1680, "4ca73608c02718e9b5d7c7443ec58e8617b70babf5e9a9328367cfdff80abe85"),
    "z4x8": (2520, "098371da18497e654301fd742119e0e6042d87746601512a565da9a80c50cc46"),
    "mixed4": (64, "9664a304b671c92376cf6c47325f35ddd0007af4db3d1de8bcfdb78b2b588d02"),
}

ENUMERATE_LADDER = ("z2x16", "z2x12", "z7x7", "z6x6", "z3x9", "z4x8",
                    "mixed4")
TABLES_COVERS = ("z2x16", "z7x7", "klein10", "z4z4x6", "mixed4")
TABLES_OPS_PER_COVER = 40
TABLES_REJECTED_PER_COVER = 8
# A pass times the reference computation (worker.py) before every
# REF_EVERY-th op, so that it takes about a tenth of the pass on tables and
# kernel and a few percent on enumerate, whose ops are long.
REF_EVERY = {"enumerate": 1, "tables": 20, "kernel": 4}
# cover -> number of documents, each with its own seeded branch values.
# A kernel op takes from 4 ms (z5x10) to 0.5 s (z2x48).  Several
# documents of the middle sizes put many ops near the median op and
# spread wall_s over many ops instead of a few of the largest.
KERNEL_COVERS = {"z2x32": 2, "z2x40": 1, "z2x48": 1, "z3x18": 3,
                 "z3x21": 3, "z3x24": 3, "z4x12": 3, "z4x16": 3,
                 "z5x10": 4}


def cover_document(name: str, rng: random.Random) -> dict:
    """The named cover with seeded branch values in seeded order.

    Kernel covers get small distinct integers, because the size of the
    values sets the size of every Fraction in the kernel solve; other
    covers get distinct fractions, which only reach the output text.
    """
    group, elements = COVERS[name]
    count = len(elements)
    if name in KERNEL_COVERS:
        values = [str(v) for v in rng.sample(range(-2 * count, 2 * count),
                                             count)]
    else:
        seen: set[Fraction] = set()
        while len(seen) < count:
            seen.add(Fraction(rng.randrange(-999, 1000),
                              rng.randrange(1, 13)))
        values = [str(v) for v in sorted(seen)]
        rng.shuffle(values)
    points = [{"element": list(e), "lambda": v}
              for e, v in zip(elements, values)]
    rng.shuffle(points)
    return {"group": group, "branch_points": points}


def _selector(beta: list[int], rng: random.Random) -> str:
    if rng.random() < 0.5:
        return json.dumps(beta)
    return ",".join(str(b) for b in beta)


def _enumerate_op(name: str, path: str) -> dict:
    count, digest = ENUMERATED[name]
    return {"kind": "cli", "cover": name, "argv": ["enumerate", path],
            "expect": {"type": "enumerate", "count": count,
                       "sha256": digest}}


def _exponents_op(name: str, path: str, beta: list[int], accepted: bool,
                  rng: random.Random) -> dict:
    return {"kind": "cli", "cover": name,
            "argv": ["exponents", "--divisor", _selector(beta, rng), path],
            "expect": {"type": "table" if accepted else "rejected",
                       "beta": beta}}


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's cover documents into workdir and return the
    plan: cover paths and the op list with expected outcomes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kernel":
        documents = [(f"{name}-{k}", name)
                     for name, copies in KERNEL_COVERS.items()
                     for k in range(copies)]
    else:
        documents = [(name, name) for name in {
            "enumerate": ENUMERATE_LADDER,
            "tables": TABLES_COVERS}[workload]]
    names = [name for name, _ in documents]
    covers = {}
    for name, cover in documents:
        doc = cover_document(cover, rng)
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        covers[name] = {"path": path, "doc": doc}

    ops: list[dict] = []
    if workload == "enumerate":
        ops = [_enumerate_op(name, covers[name]["path"]) for name in names]
    elif workload == "tables":
        for name in names:
            model = CoverModel(covers[name]["doc"])
            rejected = set(rng.sample(range(TABLES_OPS_PER_COVER),
                                      TABLES_REJECTED_PER_COVER))
            for k in range(TABLES_OPS_PER_COVER):
                accepted = k not in rejected
                beta = (model.sample_nonspecial(rng) if accepted
                        else model.sample_special(rng))
                ops.append(_exponents_op(name, covers[name]["path"], beta,
                                         accepted, rng))
        rng.shuffle(ops)
    else:
        for name in names:
            model = CoverModel(covers[name]["doc"])
            ops.extend({"kind": "kernel", "cover": name, "chi": list(chi),
                        "expect": {"type": "kernel"}}
                       for chi in model.chars)
    return {"workload": workload, "seed": seed, "covers": covers,
            "ops": ops, "ref_every": REF_EVERY[workload]}

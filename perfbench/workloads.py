"""Seeded job lists for the workloads, and the independent answer checks.

Nothing here imports wordhom.  Inputs are plain JSON-able data made from the
seed alone; expected answers come from closed forms and from this module's
own boundary operator and general-position predicate, never from the
package under test.

Each job is a dict.  The keys the worker needs are ``id``, ``kind`` and the
kind's inputs; everything the checker needs stays in the parent.

Job kinds:
  cli      -- ``argv`` run through ``wordhom.cli.run``; ``group`` is
              "homology" or "order".
  fill_inj -- ``fill_injective`` on ``cycle`` over the letters 1..``m``.
  fill_gp  -- ``fill_gp`` on ``cycle`` over F_``p``^2 with ``base`` and
              ``order`` passed as ``order_value``.
"""

from __future__ import annotations

import itertools
import random
from math import comb, factorial

WORKLOADS = ("inj-bar", "gp-fill")

# Certificates per (letters m, cycle degree n), for n = 1..m-1.
INJ_CERT_LETTERS = (7, 8)
INJ_CERTS_PER_DEGREE = 12
# Certificates per (field p, base length l, cycle degree n) with
# 2n + l + 1 <= p + 1, the degree bound of the filling theorem in dimension 2.
GP_CERT_PRIMES = (5, 7)
GP_CERTS_PER_CASE = 16
GP_HOMOLOGY_P = 5
GP_HOMOLOGY_BASE_LENGTHS = (1, 2, 3)
GP_ORDER_P = 11
DIM = 2

# Shapes of the random chains whose boundaries are the certificate cycles.
MAX_TERMS = 3
MAX_COEFF = 4


# -- independent algebra ------------------------------------------------------

def boundary(terms):
    """Alternating face sum of {word: coeff}; zero coefficients are dropped."""
    out = {}
    for word, coeff in terms.items():
        sign = 1
        for j in range(len(word)):
            face = word[:j] + word[j + 1:]
            out[face] = out.get(face, 0) + sign * coeff
            sign = -sign
    return {w: c for w, c in out.items() if c}


def reference_words():
    """The fixed chain whose boundary is the reference work: every injective
    6-letter word on 7 letters, with small nonzero coefficients."""
    return {w: i % 7 - 3 or 1 for i, w in enumerate(itertools.permutations(range(1, 8), 6))}


def derangements(m):
    """D(m) by inclusion-exclusion over the fixed points."""
    return sum((-1) ** i * comb(m, i) * factorial(m - i) for i in range(m + 1))


def _parallel(u, v, p):
    return (u[0] * v[1] - u[1] * v[0]) % p == 0


def gp_dim2(x, y, p):
    """General position over F_p^2: every x entry is nonzero and parallel to
    no nonzero entry at another position of x.y."""
    entries = list(x) + list(y)
    for i, u in enumerate(x):
        if not any(a % p for a in u):
            return False
        for j, v in enumerate(entries):
            if j != i and any(a % p for a in v) and _parallel(u, v, p):
                return False
    return True


def projective_points(p):
    return [(0, 1)] + [(1, a) for a in range(p)]


def blocks_dim2(word, p):
    """No nonzero vector of F_p^2 is in general position to the word."""
    return not any(gp_dim2((pt,), word, p) for pt in projective_points(p))


# -- seeded inputs ------------------------------------------------------------

def _random_chain(rng, sample_word):
    terms = {}
    for _ in range(rng.randint(1, MAX_TERMS)):
        coeff = rng.choice([c for c in range(-MAX_COEFF, MAX_COEFF + 1) if c])
        word = sample_word()
        terms[word] = terms.get(word, 0) + coeff
    return {w: c for w, c in terms.items() if c}


def _cycle(rng, sample_word):
    """Boundary of a random chain, redrawn until it is nonzero."""
    while True:
        cycle = boundary(_random_chain(rng, sample_word))
        if cycle:
            return cycle


def encode(terms):
    return [[list(map(_json_symbol, w)), c] for w, c in sorted(terms.items())]


def _json_symbol(s):
    return list(s) if isinstance(s, tuple) else s


def random_frame(rng, p, length):
    """A base word of pairwise non-parallel nonzero vectors over F_p^2."""
    frame = []
    for point in rng.sample(projective_points(p), length):
        scale = rng.randrange(1, p)
        frame.append(tuple(scale * a % p for a in point))
    return tuple(frame)


def _random_gp_word(rng, p, base, length):
    """Uniform word in general position to the base, by rejection."""
    nonzero = [(a, b) for a in range(p) for b in range(p) if a or b]
    while True:
        word = tuple(rng.choice(nonzero) for _ in range(length))
        if gp_dim2(word, base, p):
            return word


def _cli(argv, group, check):
    return {"kind": "cli", "group": group, "argv": argv, "check": check}


def homology_table_jobs():
    """The injective and bar homology tables.

    Neither complex has a free parameter, so these jobs are the same for
    every seed.
    """
    return [
        _cli(["homology", "inj", "--m", "6", "--format", "json"], "homology", {"inj_m": 6}),
        _cli(["nakaoka", "--n", "3", "--max-degree", "3", "--format", "json"],
             "homology", {"nakaoka_n": 3, "max_degree": 3}),
        _cli(["nakaoka", "--n", "5", "--max-degree", "1", "--format", "json"],
             "homology", {"nakaoka_n": 5, "max_degree": 1}),
    ]


def gp_jobs(rng):
    p_ord = GP_ORDER_P
    jobs = [_cli(["gp-order", "--p", str(p_ord), "--dim", str(DIM), "--format", "json"],
                 "order", {"order_p": p_ord})]
    p = GP_HOMOLOGY_P
    for length in GP_HOMOLOGY_BASE_LENGTHS:
        base = random_frame(rng, p, length)
        argv = ["homology", "gp", "--p", str(p), "--dim", str(DIM),
                "--base", _base_json(base), "--format", "json"]
        jobs.append(_cli(argv, "homology", {"gp_p": p, "base_length": length}))
    for p in GP_CERT_PRIMES:
        order = p + 1
        for length in range(order):
            for n in range(1, (order - length - 1) // 2 + 1):
                for _ in range(GP_CERTS_PER_CASE):
                    base = random_frame(rng, p, length)
                    cycle = _cycle(rng, lambda: _random_gp_word(rng, p, base, n + 1))
                    jobs.append({"kind": "fill_gp", "p": p, "order": order,
                                 "base": [list(v) for v in base], "degree": n,
                                 "cycle": encode(cycle)})
    return jobs


def injective_cert_jobs(rng):
    jobs = []
    for m in INJ_CERT_LETTERS:
        letters = list(range(1, m + 1))
        for n in range(1, m):
            for _ in range(INJ_CERTS_PER_DEGREE):
                cycle = _cycle(rng, lambda: tuple(rng.sample(letters, n + 1)))
                jobs.append({"kind": "fill_inj", "m": m, "degree": n,
                             "cycle": encode(cycle)})
    return jobs


def _base_json(base):
    return "[" + ",".join(f"[{a},{b}]" for a, b in base) + "]"


def make_jobs(workload, seed):
    """The workload's job list for this seed, with ids in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "inj-bar":
        jobs = homology_table_jobs()
    elif workload == "gp-fill":
        jobs = gp_jobs(rng) + injective_cert_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def worker_view(job):
    """The job as the worker sees it: inputs only, no expected answers."""
    return {k: v for k, v in job.items() if k != "check"}


# -- answer checks ------------------------------------------------------------

def decode(terms):
    return {tuple(tuple(s) if isinstance(s, list) else s for s in w): c for w, c in terms}


def _groups(payload):
    return {g["degree"]: (g["free_rank"], tuple(g["torsion"])) for g in payload["groups"]}


TRIVIAL = (0, ())
Z = (1, ())
Z2 = (0, (2,))
# H_m(S_n) for the degrees the Nakaoka jobs reach.
SYMMETRIC_HOMOLOGY = {
    (2, 0): Z, (2, 1): Z2, (2, 2): TRIVIAL, (2, 3): Z2,
    (3, 0): Z, (3, 1): Z2, (3, 2): TRIVIAL, (3, 3): (0, (6,)),
    (4, 0): Z, (4, 1): Z2,
    (5, 0): Z, (5, 1): Z2,
}


def check_cli(check, payload):
    """Problems with a CLI job's JSON answer; empty when it is right."""
    if "inj_m" in check:
        m = check["inj_m"]
        want = {k: TRIVIAL for k in range(m)}
        want[m] = (derangements(m), ())
        got = _groups(payload)
        return [f"H_{k} = {got.get(k)}, expected {v}" for k, v in want.items() if got.get(k) != v]
    if "nakaoka_n" in check:
        n = check["nakaoka_n"]
        problems = []
        for row in payload["rows"]:
            m = row["m"]
            lhs = (row["lhs"]["free_rank"], tuple(row["lhs"]["torsion"]))
            rhs = (row["rhs"]["free_rank"], tuple(row["rhs"]["torsion"]))
            if lhs != SYMMETRIC_HOMOLOGY[(n - 1, m)] or rhs != SYMMETRIC_HOMOLOGY[(n, m)]:
                problems.append(f"H_{m}(S_{n - 1}) = {lhs}, H_{m}(S_{n}) = {rhs}")
            if row["in_range"] != (2 * m < n) or (row["in_range"] and lhs != rhs):
                problems.append(f"stability row m={m} is wrong")
        if [row["m"] for row in payload["rows"]] != list(range(check["max_degree"] + 1)):
            problems.append(f"rows are not the degrees 0..{check['max_degree']}")
        return problems
    if "order_p" in check:
        p = check["order_p"]
        witness = tuple(tuple(v) for v in payload["witness"] or ())
        if payload["order"] != p + 1 or len(witness) != p + 1:
            return [f"order {payload['order']}, expected {p + 1}"]
        if not blocks_dim2(witness, p):
            return ["the witness does not block"]
        return []
    if "gp_p" in check:
        p = check["gp_p"]
        bound = (p + 1 - check["base_length"] - 1) // 2
        got = _groups(payload)
        return [f"H_{k} = {got.get(k)}, expected 0" for k in range(bound + 1)
                if got.get(k) != TRIVIAL]
    raise ValueError(f"unknown check {check}")


def check_fill(job, filling):
    """Problems with a filling; empty when boundary(filling) == cycle and
    every filling word lies in the complex the cycle came from."""
    cycle = decode(job["cycle"])
    fill = decode(filling)
    problems = []
    if boundary(fill) != cycle:
        problems.append("boundary(filling) != cycle")
    if job["kind"] == "fill_inj":
        m = job["m"]
        for w in fill:
            if len(set(w)) != len(w) or not all(1 <= a <= m for a in w):
                problems.append(f"filling word {w} is not injective on 1..{m}")
    else:
        base = tuple(tuple(v) for v in job["base"])
        for w in fill:
            if not gp_dim2(w, base, job["p"]):
                problems.append(f"filling word {w} is not in general position to {base}")
    return problems


def check(job, result):
    """Problems with one job's result as the worker reported it."""
    if not result.get("ok"):
        return [result.get("error") or f"exit code {result.get('rc')}"]
    try:
        if job["kind"] == "cli":
            return check_cli(job["check"], result["output"])
        return check_fill(job, result["output"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed answer: {exc!r}"]

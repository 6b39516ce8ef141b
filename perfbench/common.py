"""Pieces shared by the workloads: ops, canonical output, text encoders."""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import namedtuple
from fractions import Fraction

# One timed call into the program.  ``check(out)`` runs after the timed
# phase and returns True, or a short text naming what did not hold.
Op = namedtuple("Op", "kind fn args check")


def shuffled_kinds(rng, counts: dict) -> list:
    """Exactly ``counts[kind]`` copies of each kind, in a seeded order."""
    kinds = [k for k, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def canon(x):
    """JSON-ready canonical form of a program output."""
    if isinstance(x, BaseException):
        return {"error": type(x).__name__, "detail": str(x)}
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if hasattr(x, "to_json"):
        return x.to_json()
    if hasattr(x, "to_strings"):  # MatQ / MatF2Rat
        return x.to_strings()
    if hasattr(x, "mat"):  # UniTriMat / NilMat
        return canon(x.mat)
    if hasattr(x, "h_central"):  # CommDesc
        return {
            "h_central": canon(x.h_central), "P": canon(x.p),
            "h_10": canon(x.h_10), "h_1z": canon(x.h_1z), "red": canon(x.red),
        }
    if hasattr(x, "r") and hasattr(x, "q"):  # AffineMap
        return {"r": str(x.r), "q": str(x.q)}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def result_digest(outs) -> str:
    """SHA-256 over the canonical JSON of a pass's outputs, in op order."""
    h = hashlib.sha256()
    for out in outs:
        h.update(json.dumps(canon(out), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def same(a, b) -> bool:
    """Equality of two outputs; exceptions compare by type and text."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def percentiles(values, cuts=(50, 90, 99)) -> dict:
    q = statistics.quantiles(values, n=100, method="inclusive")
    return {c: q[c - 1] for c in cuts}


# ---------------------------------------------------------------------------
# text encoders for the program's own parsers


def poly_str(exps, var: str = "t") -> str:
    """F2 Laurent polynomial with the given exponent set, in the CLI grammar."""
    exps = sorted(set(exps))
    if not exps:
        return "0"
    return "+".join("1" if e == 0 else var if e == 1 else f"{var}^{e}" for e in exps)


def mask_exps(mask: int, shift: int = 0) -> list:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e + shift)
        mask >>= 1
        e += 1
    return out


def clmul(a: int, b: int) -> int:
    """Carry-less product of two bit masks (the benchmark's own copy)."""
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def ratfun_str(rng, var: str = "s", max_deg: int = 2) -> str:
    """Random nonzero element of F2(s) as ``poly`` or ``(poly)/(poly)``."""
    num = mask_exps(rng.randrange(1, 1 << (max_deg + 1)), rng.randrange(-1, 2))
    den = mask_exps(rng.randrange(0, 1 << max_deg) * 2 + 1)
    if den == [0]:
        return poly_str(num, var)
    return f"({poly_str(num, var)})/({poly_str(den, var)})"


def f2_invertible(rng, n: int) -> list:
    """Random invertible F2 matrix, built from the identity by row moves."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
    return rows


def f2_matmul(a, b) -> list:
    n = len(a)
    return [[sum(a[i][k] & b[k][j] for k in range(n)) & 1 for j in range(n)] for i in range(n)]

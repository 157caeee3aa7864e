"""Counter values: arbitrary-precision integers extended with a top element omega.

Valuations are plain dicts counter-id -> int | OMEGA. Ids are strings with
lexicographic ordering so every iteration over counters is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArgumentError


class Omega:
    """The top element: strictly above every finite value, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("__omega__")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return other is not self
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("omega has no additive inverse")


OMEGA = Omega()


def is_omega(v) -> bool:
    return v is OMEGA


def omega_set(valuation: dict) -> frozenset:
    """The counters mapped to omega."""
    return frozenset(c for c, v in valuation.items() if v is OMEGA)


def val_add(a, b):
    """a + b with omega absorbing; b must be finite or omega."""
    if a is OMEGA or b is OMEGA:
        return OMEGA
    return a + b


def vec_add(valuation: dict, update: dict) -> dict:
    """Apply a finite update vector to a (possibly generalized) valuation."""
    return {c: val_add(v, update.get(c, 0)) for c, v in valuation.items()}


def value_to_json(v):
    return "omega" if v is OMEGA else v


def int_from_json(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ArgumentError(f"not an integer: {v!r}")
    return v


def value_from_json(v):
    return OMEGA if v == "omega" else int_from_json(v)


def shifted(val, moves) -> list:
    """A list of value ranges with range k moved by d, for (k, d) in moves."""
    nval = list(val)
    for k, d in moves:
        r = nval[k]
        nval[k] = range(r.start + d, r.stop + d, r.step)
    return nval


def clip(r: range, lo=None, hi=None) -> range:
    """The members of r (positive step) within [lo, hi]; None is unbounded."""
    n = len(r)
    i = 0 if lo is None else min(n, max(0, -((r.start - lo) // r.step)))
    j = n if hi is None else min(n, max(0, (hi - r.start) // r.step + 1))
    return r[i:j]


def gate_ok(value, bound, m) -> bool:
    """Whether `value` passes the gate of modulus m against the marking
    `bound`: an ω bound admits every value; m = 0 asks for equality and
    m >= 1 for a finite value congruent to bound modulo m."""
    if bound is OMEGA:
        return True
    if m == 0:
        return value == bound
    return value is not OMEGA and (value - bound) % m == 0

"""Base rings for the exact linear algebra core.

Three kinds of coefficient rings are supported:

* the integers ``Z`` (a PID),
* the rationals ``Q`` (a field),
* ``Z/m`` for a prime power ``m = p**k`` (a field for ``k = 1``, a
  self-injective local ring for ``k >= 2``).

These are exactly the rings over which projectivity and injectivity of
finitely generated modules is decidable from an invariant-factor normal
form.  Elements are plain Python objects: ``int`` for ``Z`` and ``Z/m``
(reduced to ``[0, m)``), ``fractions.Fraction`` for ``Q``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import InvalidParameter, UnsupportedRing

INTEGERS = "Z"
RATIONALS = "Q"
INTEGERS_MOD = "mod"

# Moduli read from input lie below this cap: checking that m is a prime
# power takes trial division up to sqrt(m), which is instant below 2**31
# and runs for minutes near 10**20.
MAX_MODULUS = 2 ** 31


def _prime_power_base(m: int) -> int | None:
    """Return p if m = p**k for a prime p, else None."""
    if m < 2:
        return None
    for p in range(2, m + 1):
        if p * p > m:
            return m  # m itself is prime
        if m % p == 0:
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    return None


class BaseRing:
    """One of Z, Q, or Z/p^k, with canonical element representatives."""

    __slots__ = ("kind", "modulus", "prime", "exponent", "zero", "one")

    def __init__(self, kind: str, modulus: int | None = None):
        self.kind = kind
        self.modulus = modulus
        self.prime = None
        self.exponent = None
        if kind == INTEGERS_MOD:
            if modulus is None:
                raise InvalidParameter("modular ring needs a modulus")
            p = _prime_power_base(modulus)
            if p is None:
                raise InvalidParameter(
                    f"modulus {modulus} is not a prime power >= 2")
            self.prime = p
            e = 0
            m = modulus
            while m > 1:
                m //= p
                e += 1
            self.exponent = e
        elif kind not in (INTEGERS, RATIONALS):
            raise InvalidParameter(f"unknown ring kind {kind!r}")
        self.zero = self.canon(0)
        self.one = self.canon(1)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or (isinstance(other, BaseRing)
                                 and self.kind == other.kind
                                 and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == INTEGERS_MOD:
            return f"Zmod({self.modulus})"
        return {INTEGERS: "ZZ", RATIONALS: "QQ"}[self.kind]

    # -- structural predicates ----------------------------------------------

    @property
    def is_field(self) -> bool:
        if self.kind == RATIONALS:
            return True
        return self.kind == INTEGERS_MOD and self.exponent == 1

    @property
    def is_hereditary(self) -> bool:
        """True for Z, Q and Z/p; false for Z/p^k with k >= 2."""
        return self.kind in (INTEGERS, RATIONALS) or self.is_field

    @property
    def is_modular(self) -> bool:
        return self.kind == INTEGERS_MOD

    # -- element arithmetic --------------------------------------------------

    def canon(self, x):
        """Canonical representative: int, reduced int in [0, m), or Fraction."""
        if self.kind == INTEGERS:
            return int(x)
        if self.kind == RATIONALS:
            return Fraction(x)
        return int(x) % self.modulus

    def element(self, x):
        """Canonical representative of a value given from outside the library.

        Only exact values are accepted: ints and Fractions, the latter
        integral unless the ring is Q.  A float, a bool or a non-integral
        Fraction over Z or Z/m raises InvalidParameter instead of being
        truncated or rounded.
        """
        exact = isinstance(x, (int, Fraction)) and not isinstance(x, bool)
        if not exact or (x.denominator != 1 and self.kind != RATIONALS):
            raise InvalidParameter(f"{x!r} is not an exact element of {self!r}")
        return self.canon(x)

    def mul(self, a, b):
        return self.canon(a * b)

    def neg(self, a):
        return self.canon(-a)

    def is_unit(self, a) -> bool:
        a = self.canon(a)
        if self.kind == INTEGERS:
            return a in (1, -1)
        if self.kind == RATIONALS:
            return a != 0
        return gcd(a, self.modulus) == 1

    def inv(self, a):
        a = self.canon(a)
        if not self.is_unit(a):
            raise UnsupportedRing(f"{a} is not a unit in {self!r}")
        if self.kind == INTEGERS:
            return a
        if self.kind == RATIONALS:
            return Fraction(1) / a
        return pow(a, -1, self.modulus)

    # -- serialization --------------------------------------------------------

    def format_entry(self, x) -> "str | int":
        x = self.canon(x)
        if self.kind == INTEGERS_MOD:
            return int(x)
        return str(x)

    def parse_entry(self, s):
        if self.kind == INTEGERS_MOD:
            if isinstance(s, bool) or not isinstance(s, int):
                raise InvalidParameter(f"mod-{self.modulus} entries are ints, got {s!r}")
            return self.canon(s)
        if not isinstance(s, str):
            raise InvalidParameter(f"entries over {self!r} are strings, got {s!r}")
        if self.kind == INTEGERS:
            return int(s)
        if "e" in s or "E" in s:  # Fraction("1e10000000") builds 10**(10**7)
            raise InvalidParameter(f"entries over Q are p/q, with no exponent: {s!r}")
        return Fraction(s)

    def to_json(self):
        if self.kind == INTEGERS_MOD:
            return {"mod": self.modulus}
        return self.kind

    @staticmethod
    def from_json(data) -> "BaseRing":
        if data == INTEGERS:
            return ZZ
        if data == RATIONALS:
            return QQ
        if isinstance(data, dict) and set(data) == {"mod"}:
            m = data["mod"]
            if isinstance(m, bool) or not isinstance(m, int):
                raise InvalidParameter(f"modulus must be an integer, got {m!r}")
            if m >= MAX_MODULUS:
                raise InvalidParameter(f"modulus must be below 2**31, got {m}")
            return Zmod(m)
        raise InvalidParameter(f"unrecognized ring spec {data!r}")


ZZ = BaseRing(INTEGERS)
QQ = BaseRing(RATIONALS)

_mod_cache: dict[int, BaseRing] = {}


def Zmod(m: int) -> BaseRing:
    if m not in _mod_cache:
        _mod_cache[m] = BaseRing(INTEGERS_MOD, m)
    return _mod_cache[m]

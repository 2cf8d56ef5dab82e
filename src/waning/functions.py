"""Waning functions and the calculus around them.

A waning function is a non-increasing map from the extended naturals to
themselves that is either constantly OMEGA or strictly decreasing at every
finite nonzero value until it reaches 0.  ``WaningFn`` stores the canonical
finite encoding; ``GenFn`` stores an arbitrary eventually-constant function,
the input of ``closure``, which computes the greatest waning function
pointwise below it at every finite index.

The order ``preceq`` is reversed-pointwise: ``f preceq g`` iff ``f(i) >= g(i)``
everywhere.  Under it the constant-OMEGA function is the bottom element, the
constant-0 function the top, pointwise minima are joins and pointwise maxima
are meets.

Values lie in the extended naturals: a non-negative ``int`` or ``OMEGA``,
which is ``math.inf``.  A float is safe here because the only arithmetic on
these values adds or subtracts small counts (``closure`` subtracts 1,
``much_wan_witness`` subtracts pair counts), which leaves ints exact and
OMEGA at OMEGA; nothing computes OMEGA - OMEGA or multiplies OMEGA, the
operations that could give nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, gt
from typing import Iterable, Union

from .errors import BoundTooLarge, DomainError, OmegaEntries

OMEGA = math.inf
ExtNat = Union[int, float]

# The most elements one call may build: the functions of an enumeration or
# the pairs of a witness.  Larger requests raise BoundTooLarge.
SIZE_LIMIT = 1 << 16


def is_omega(value: ExtNat) -> bool:
    return value == OMEGA


def check_nat(*values: int, name: str = "") -> None:
    """DomainError unless every value is a natural: a plain non-negative
    ``int``.  Floats and bools are refused, not truncated.  The message
    starts with ``name`` when one is given, so that a caller checking
    several parameters says which one was refused."""
    for v in values:
        if type(v) is not int or v < 0:
            raise DomainError(f"{name + ' = ' if name else ''}{v!r} is not a natural")


def nat_set(points: Iterable[int]) -> frozenset[int]:
    """The points as a set, each checked by ``check_nat`` first: once the set
    is built, ``True`` and ``1.0`` have merged into ``1``.  A frozenset is
    checked as it stands and returned, not copied."""
    if type(points) is not frozenset:
        points = tuple(points)
    check_nat(*points)
    return frozenset(points)


def _check_extnat(value: ExtNat) -> ExtNat:
    """``value`` if it is a natural or OMEGA; DomainError otherwise."""
    if (type(value) is int and value >= 0) or is_omega(value):
        return value
    raise DomainError(f"expected a natural or OMEGA, got {value!r}")


@dataclass(frozen=True, slots=True)
class GenFn:
    """Eventually-constant function on the extended naturals.

    ``prefix`` gives the first values, ``tail`` the value at every larger
    finite index, and ``omega`` the value at the top point.
    """

    prefix: tuple[ExtNat, ...] = ()
    tail: ExtNat = 0
    omega: ExtNat = 0

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(map(_check_extnat, self.prefix)))
        _check_extnat(self.tail)
        _check_extnat(self.omega)

    def __call__(self, i: ExtNat) -> ExtNat:
        if type(i) is int and i >= 0:
            return self.prefix[i] if i < len(self.prefix) else self.tail
        _check_extnat(i)
        return self.omega


@dataclass(frozen=True, slots=True)
class WaningFn:
    """Canonical form of a waning function.

    The constant-OMEGA function is the single instance with ``const_omega``
    set.  Every other waning function is OMEGA on the first ``omega_prefix``
    indices, runs through the strictly decreasing positive ``drops``, and is
    0 from there on, including at the top point.
    """

    omega_prefix: int = 0
    drops: tuple[int, ...] = ()
    const_omega: bool = False

    def __post_init__(self):
        drops = tuple(self.drops)
        object.__setattr__(self, "drops", drops)
        check_nat(self.omega_prefix, *drops)
        if not isinstance(self.const_omega, bool):
            raise DomainError(f"const_omega must be a bool, got {self.const_omega!r}")
        if self.const_omega:
            if self.omega_prefix or drops:
                raise DomainError("constant-omega form carries no finite data")
            return
        if drops and drops[-1] < 1:
            raise DomainError(f"drops must stay positive: {drops}")
        if not all(map(gt, drops, drops[1:])):
            raise DomainError(f"drops not strictly decreasing: {drops}")

    @classmethod
    def _canonical(cls, omega_prefix: int, drops: tuple[int, ...]) -> "WaningFn":
        """Fast path for a form the caller has shown canonical: a natural
        ``omega_prefix`` and a tuple of strictly decreasing positive ints."""
        self = object.__new__(cls)
        object.__setattr__(self, "omega_prefix", omega_prefix)
        object.__setattr__(self, "drops", drops)
        object.__setattr__(self, "const_omega", False)
        return self

    def __call__(self, i: ExtNat) -> ExtNat:
        if type(i) is int and i >= 0:
            if self.const_omega:
                return OMEGA
            j = i - self.omega_prefix
            if j < 0:
                return OMEGA
            return self.drops[j] if j < len(self.drops) else 0
        _check_extnat(i)
        return OMEGA if self.const_omega else 0

    @property
    def support_end(self) -> int:
        """First index from which the function is constantly 0."""
        if self.const_omega:
            raise OmegaEntries("constant-omega function never reaches 0")
        return self.omega_prefix + len(self.drops)

    def sort_key(self) -> tuple:
        return (1 if self.const_omega else 0, self.omega_prefix, self.drops)

    def __repr__(self) -> str:
        if self.const_omega:
            return "WaningFn(OMEGA)"
        head = ["ω"] * self.omega_prefix + [str(d) for d in self.drops]
        head.append("0…")
        return f"WaningFn({','.join(head)})"


CONST_OMEGA = WaningFn(const_omega=True)
CONST_ZERO = WaningFn()


def is_waning(f: Union[GenFn, WaningFn]) -> bool:
    """Decide the waning predicate; a WaningFn is waning by construction."""
    if isinstance(f, WaningFn):
        return True
    values = list(f.prefix) + [f.tail]
    if all(is_omega(v) for v in values):
        # constant OMEGA counts only when it extends to the top point
        return is_omega(f.omega)
    for a, b in zip(values, values[1:]):
        if b > a:
            return False
        if not is_omega(a) and a != 0 and b >= a:
            return False
    if f.tail != 0:
        # a finite nonzero tail repeats forever; an omega tail rose above
        # some finite value and was caught by the pairwise checks
        return False
    return f.omega == 0


def closure(f: Union[GenFn, WaningFn]) -> WaningFn:
    """Greatest waning function pointwise below ``f`` at every finite index.

    A WaningFn is its own closure, and is returned as it stands.  For a
    GenFn, step rules: start at ``f(0)``; while the running value is nonzero
    the next value is ``min(f(i+1), value - 1)``; once 0 is reached stay at
    0.  An everywhere-OMEGA run yields the constant-OMEGA function.  Past the
    prefix every step reads the tail, so the remaining drops count down from
    ``min(tail, value - 1)``.  Raises BoundTooLarge when the result would
    have more than SIZE_LIMIT drops.
    """
    if isinstance(f, WaningFn):
        return f
    prefix, tail = f.prefix, f.tail
    i = 0
    while i < len(prefix) and prefix[i] == OMEGA:
        i += 1
    if i == len(prefix) and tail == OMEGA:
        return CONST_OMEGA
    drops: list[int] = []
    value, rest = OMEGA, 0
    # min(v, value - 1) inline: v < value is v <= value - 1 for v in ℕ ∪ {OMEGA}
    for v in prefix[i:]:
        value = v if v < value else value - 1
        if value == 0:
            break
        drops.append(value)
    else:
        rest = tail if tail < value else value - 1
    if len(drops) + rest > SIZE_LIMIT:
        raise BoundTooLarge(f"the closure has more than {SIZE_LIMIT} drops")
    drops.extend(range(rest, 0, -1))
    # canonical: i counts leading OMEGA values; each drop is an int (a finite
    # value, or one less than the last) below the one before, and positive,
    # as the run stops at 0
    return WaningFn._canonical(i, tuple(drops))


def preceq(f: WaningFn, g: WaningFn) -> bool:
    """Reversed pointwise order: f(i) >= g(i) at every index including the top."""
    if f.const_omega:
        return True
    if g.const_omega:
        return False
    # f needs the longer OMEGA run and support, and drops at least g's where
    # both are finite
    pf, pg, fd, gd = f.omega_prefix, g.omega_prefix, f.drops, g.drops
    return pf >= pg and pf + len(fd) >= pg + len(gd) and all(map(ge, fd, gd[pf - pg :]))


def join(f: WaningFn, g: WaningFn) -> WaningFn:
    """Pointwise minimum; the least upper bound of f and g under preceq.

    The minimum is waning, with OMEGA prefix ``start`` and drops its values
    in ``[start, end)``.  There one input is finite and both are positive,
    so the minimum is a positive int; and each input is OMEGA at i or
    strictly above its value at i+1, which is at least the minimum there,
    so the minimum strictly decreases.  Below ``start`` both inputs are
    OMEGA; from ``end`` on, and at the top point, one is 0.
    """
    if f.const_omega:
        return g
    if g.const_omega:
        return f
    if f.omega_prefix > g.omega_prefix:
        f, g = g, f
    # f has the shorter OMEGA run, so start is f's; g is OMEGA on f's first
    # ``shift`` drops and then reads its own, and the shorter support ends
    # the minimum
    shift = g.omega_prefix - f.omega_prefix
    return WaningFn._canonical(
        f.omega_prefix, f.drops[:shift] + tuple(map(min, f.drops[shift:], g.drops))
    )


def meet(f: WaningFn, g: WaningFn) -> WaningFn:
    """Pointwise maximum; the greatest lower bound of f and g under preceq.

    The maximum is waning: it is non-increasing because both inputs are; if
    it takes a finite nonzero value m at i+1, the input reaching m there is
    strictly above m at i, and so is the maximum; an OMEGA value at i+1
    forces OMEGA at i.
    """
    if f.const_omega or g.const_omega:
        return CONST_OMEGA
    if f.omega_prefix < g.omega_prefix:
        f, g = g, f
    # f has the longer OMEGA run, so start is f's; from there both inputs
    # are finite, one is positive, and the shorter run of drops is 0 past
    # its end, so the longer run's remaining drops are the maximum
    a, b = f.drops, g.drops[f.omega_prefix - g.omega_prefix :]
    if len(a) < len(b):
        a, b = b, a
    return WaningFn._canonical(f.omega_prefix, tuple(map(max, a, b)) + a[len(b) :])


def enumerate_below(f: WaningFn) -> list[WaningFn]:
    """All waning functions pointwise at most ``f``, for omega-free ``f``.

    Any such function is itself omega-free, so it is a strictly decreasing
    run of positive values bounded by ``f``; the search branches on the value
    chosen at each index.  Results are sorted by canonical form.  Raises
    BoundTooLarge when there are more than SIZE_LIMIT of them.
    """
    if f.const_omega or f.omega_prefix:
        raise OmegaEntries("enumeration below an omega entry is infinite")
    too_many = f"more than {SIZE_LIMIT} functions lie below the argument"
    top = f.drops
    # the drops of f are at least those of staircase(len(top)), and the
    # 2 ** len(top) functions below that lie below f too
    if len(top) >= SIZE_LIMIT.bit_length():
        raise BoundTooLarge(too_many)
    results: list[WaningFn] = []

    def grow(drops: list[int], i: int) -> None:
        # entering with value 0 at index i pins the function from here on
        if len(results) == SIZE_LIMIT:
            raise BoundTooLarge(too_many)
        # canonical: each value is drawn below the last and above 0
        results.append(WaningFn._canonical(0, tuple(drops)))
        if i >= len(top):
            return
        ceiling = top[i] if not drops else min(top[i], drops[-1] - 1)
        # with values ascending, the preorder lists each run before its
        # extensions and after runs smaller where they differ: sort_key order
        for v in range(1, ceiling + 1):
            grow(drops + [v], i + 1)

    grow([], 0)
    return results


def descending_chain_element(n: int) -> WaningFn:
    """n at index 0 and 0 everywhere else; strictly descending in n."""
    check_nat(n)
    return CONST_ZERO if n == 0 else WaningFn(drops=(n,))


def staircase(c: int) -> WaningFn:
    """The pointwise-largest omega-free waning function with value c at 0."""
    check_nat(c)
    return WaningFn(drops=tuple(range(c, 0, -1)))


def count_with_first_value_below(c: int) -> int:
    """Number of omega-free waning functions whose value at 0 is at most c."""
    return len(enumerate_below(staircase(c)))

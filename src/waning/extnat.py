"""Values in the extended naturals: ordinary ints plus the top element OMEGA.

A value is either a plain non-negative ``int`` or the singleton ``OMEGA``,
which compares greater than every int and absorbs addition and subtraction
(``OMEGA - n == OMEGA``).  Keeping finite values as ints means all ordinary
arithmetic and ``min``/``max`` work unchanged on mixed arguments.
"""

from __future__ import annotations

from typing import Union


class _Omega:
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, _Omega)

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Omega)

    def __gt__(self, other):
        if isinstance(other, (_Omega, int)):
            return not isinstance(other, _Omega)
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_Omega, int)):
            return True
        return NotImplemented

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self

    def __hash__(self):
        return hash("omega")

    def __repr__(self):
        return "OMEGA"

    def __reduce__(self):
        # unpickling must return the singleton, not a copy
        return (_omega_instance, ())


def _omega_instance() -> "_Omega":
    return OMEGA


OMEGA = _Omega()

ExtNat = Union[int, _Omega]


def is_omega(value: ExtNat) -> bool:
    return isinstance(value, _Omega)


def check_extnat(value: ExtNat) -> ExtNat:
    """Validate that ``value`` is a non-negative int or OMEGA."""
    if isinstance(value, _Omega):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a natural or OMEGA, got {value!r}")
    if value < 0:
        raise ValueError(f"expected a non-negative value, got {value}")
    return value

# Waning functions: evaluation, the closure operator, and the order.
#
# A waning function is non-increasing on the extended naturals and strictly
# decreasing at every finite nonzero value until it hits 0.  These functions
# label the separable semigroup topologies on the monoid of partial
# bijections; everything downstream is built on them.

from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    OMEGA,
    GenFn,
    WaningFn,
    closure,
    count_with_first_value_below,
    descending_chain_element,
    enumerate_below,
    is_omega,
    is_waning,
    join,
    meet,
    preceq,
)

# --- evaluation -------------------------------------------------------------

# the classic piecewise shape: OMEGA for a while, then a linear descent, then 0
f = GenFn(prefix=tuple([OMEGA] * 43 + [1337 - x for x in range(43, 69)]))
print("f(10) =", "OMEGA" if is_omega(f(10)) else f(10))
print("f(50) =", f(50))
print("f(100) =", f(100))
print("is_waning(f):", is_waning(f))

# --- the closure operator ----------------------------------------------------

# an arbitrary eventually-constant function need not be waning; its closure is
# the greatest waning function sitting below it pointwise
g = GenFn(prefix=(5, 5, 5))
print("\nclosure of (5,5,5,0,...):", closure(g))
c = closure(g)
# c's values listed as an eventually-constant function have closure c again
listed = GenFn(prefix=tuple(c(i) for i in range(c.support_end)))
print("closure is idempotent:", closure(listed) == c)

# everywhere-OMEGA input collapses to the constant-OMEGA function
print("closure of all-OMEGA:", closure(GenFn(tail=OMEGA, omega=OMEGA)))

# --- the order and its lattice operations ------------------------------------

a = WaningFn(drops=(5, 1))
b = WaningFn(drops=(3, 2, 1))
print("\na =", a, " b =", b)
print("preceq(a, b):", preceq(a, b), " preceq(b, a):", preceq(b, a))
print("join (pointwise min):", join(a, b))
print("meet (pointwise max):", meet(a, b))
print("bottom preceq everything:", preceq(CONST_OMEGA, a))
print("everything preceq top:", preceq(a, CONST_ZERO))

# --- counting ----------------------------------------------------------------

# functions bounded by a staircase correspond to subsets of the values below
# the starting point, so the census doubles with each extra unit
for c in range(6):
    print(f"omega-free waning functions with value <= {c} at 0:",
          count_with_first_value_below(c))

print("\nall functions below (2,1,0,...):")
for w in enumerate_below(WaningFn(drops=(2, 1))):
    print("  ", w)

# --- an infinite descending chain ---------------------------------------------

chain = [descending_chain_element(n) for n in range(5)]
print("\nchain elements:", chain)
print("strictly descending:",
      all(preceq(chain[i + 1], chain[i]) and chain[i] != chain[i + 1]
          for i in range(4)))

# The inverse monoid of finite partial bijections.
#
# Elements are injective partial maps on the naturals.  Composition applies
# the left factor first; every element has a unique semigroup inverse, and
# the idempotents are exactly the partial identities.

from waning import PBij, collapse

a = PBij([(0, 3), (1, 4)])
b = PBij([(3, 2), (4, 0)])
print("a =", a)
print("b =", b)
print("a * b =", a * b)

# inverse-monoid laws
print("\na * a^-1 =", a * a.inverse(), " (partial identity on dom a)")
print("a * a^-1 * a == a:", a * a.inverse() * a == a)

# restriction keeps sources below the cut
g = PBij([(0, 5), (3, 1), (7, 2)])
print("\ng =", g)
print("g restricted below 4:", g.restrict(4))

# --- collapsing an extension ---------------------------------------------------

# removing a fixed finite piece and renumbering both sides gives a bijection
# between extensions of g and arbitrary elements; on extensions of a partial
# identity it is even multiplicative
g = PBij([(0, 0)])
h = PBij([(0, 0), (2, 5)])
print("\ncollapse of", h, "over", g, "=", collapse(g, h))

ident = PBij.identity(2)
h1 = PBij([(0, 0), (1, 1), (3, 2)])
h2 = PBij([(0, 0), (1, 1), (2, 3), (5, 4)])
lhs = collapse(ident, h1 * h2)
rhs = collapse(ident, h1) * collapse(ident, h2)
print("collapse is multiplicative over id_2:", lhs == rhs)

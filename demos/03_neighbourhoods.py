# Open-set descriptors, exact membership, and constructive witnesses.
#
# Each basic open set has a symbolic descriptor with an exact membership
# predicate on finite partial bijections.  The refinement operations return
# the data extracted from the constructive arguments: radii, rewritten
# descriptors, and explicit separating elements.

from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    FixBelow,
    GenFn,
    PBij,
    UBasic,
    WaningFn,
    WNbhd,
    basis_refinement,
    continuity_p,
    cover_witness,
    member,
    much_wan_witness,
    order_counterexample,
    tfprime_refinement,
    valid_r_min,
)

# --- membership ----------------------------------------------------------------

# "at least 1 image point outside {0} and no image point inside it"
basic = UBasic(CONST_ZERO, 1, {0})
print("{(0,1)} in U:", member(basic, PBij([(0, 1)])))
print("{(1,0)} in U:", member(basic, PBij([(1, 0)])))

# principal neighbourhood of g: agree below r, bounded mistakes in range(r)
g = PBij([(0, 0)])
w = WNbhd(CONST_ZERO, g, 1)
print("{(0,0),(2,3)} in W:", member(w, PBij([(0, 0), (2, 3)])))

# --- radii ----------------------------------------------------------------------

print("\nsmallest valid radius for ((2,1,0,...), {(5,5)}):",
      valid_r_min(WaningFn(drops=(2, 1)), PBij([(5, 5)])))
print("basis refinement for (const0, 1, {0}, {(1,2)}):",
      basis_refinement(CONST_ZERO, 1, {0}, PBij([(1, 2)])))

# --- rewriting through the closure ----------------------------------------------

f = GenFn(prefix=(5, 5, 5))
print("\nwitness set equal to the closure neighbourhood:")
print("  ", much_wan_witness(f, g, 1))
print("refinement inside the original basic set:")
print("  ", tfprime_refinement(f, 1, {0}, PBij([(1, 2)])))

# --- continuity of multiplication ------------------------------------------------

a, b = PBij([(0, 1)]), PBij([(1, 2)])
p = continuity_p(CONST_ZERO, a, b, 1)
print("\njoint radius p for (const0, a, b, r=1):", p)
print("  products of the p-neighbourhoods land in the r-neighbourhood of a*b")

# --- separating witnesses ---------------------------------------------------------

n, bound, h = order_counterexample(WaningFn(drops=(1,)), WaningFn(drops=(2, 1)), 3)
print("\norder witness (n, b, h):", (n, bound, h))
print("  in the wider neighbourhood:",
      member(WNbhd(WaningFn(drops=(2, 1)), PBij.identity(n), 3), h))
print("  outside the narrower one:",
      not member(WNbhd(WaningFn(drops=(1,)), PBij.identity(n), bound), h))

# escape a finite subfamily of the standard cover
escape = cover_witness(0, PBij(), set(), set(range(10)), True)
print("\ncover escape for the first ten members:", escape)
print("everything matches FixBelow(empty, 0):",
      member(FixBelow(PBij(), 0), escape))
print("bottomless mistake budget keeps the whole space open:",
      member(WNbhd(CONST_OMEGA, PBij(), 0), escape))

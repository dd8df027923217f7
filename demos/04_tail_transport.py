"""Tail transport: the route for spaces with no Folner sets.

On a tree every vertex gets a *tail* -- an escape path walking away from
the root -- and greedy round-robin routing keeps every point on at most
K = 2 tails. A multiset family with levels 0..M then moves into the
space itself: element (y, n) lands on the n-th-from-top tail entry of y.
Losing the levels can shrink intersections by at most a factor of K, so
ratios below epsilon/K become ratios below epsilon.
"""

import random
from fractions import Fraction

from folnerflow import (
    Chain,
    build_tree_tails,
    perturbed_cluster_family,
    tail_transport,
    tree_window,
    verify_family,
    verify_tail_cover,
)
from folnerflow.chains import ratio

tree = tree_window(2, 8)
cover = build_tree_tails(tree)
report = verify_tail_cover(cover, tree)
print(f"binary tree, depth 8: {tree.n} points")
print("tail cover: measured K =", report.measured_K,
      "| max step =", report.measured_step, "| all invariants pass:", report.passed)
print("tail of the root:", cover.tails[0])

# members must keep depth <= 5 here: a depth-d vertex has 9 - d tail
# entries, and level-0 elements index position M = 3
M, eps = 3, Fraction(1, 4)
eps_in = eps / cover.K
rng = random.Random(4)
fam = perturbed_cluster_family(
    tree, rng, M=M, centers=[3, 6], cluster_radius=2, core_radius=1,
    base_size=35, R=1, epsilon=eps_in,
)
print(f"\ninput: multiset family with levels 0..{M}, ratios promised < {eps_in}")
worst_in = max(
    ratio(Chain.from_set(fam.sets[x]), Chain.from_set(fam.sets[y]))
    for x in fam.sets for y in tree.ball(x, 1) if y > x and y in fam.sets
)
print("  worst in-range ratio actually measured:", worst_in)

out = tail_transport(fam, cover, tree)
check = verify_family(out, require_flat=True)
print("transported family: plain subsets of the tree")
print("  worst in-range ratio:", check.worst_ratio, f"< {out.params.epsilon} =", check.passed)
print("  support radius bound M*r + S =", out.params.S,
      "| measured:", check.max_support_radius)

"""Enumeration caps and default thresholds.

Caps are module constants rather than hard-coded literals so that error
messages can name them and callers can see what budget was exceeded.
Each is enforced by one call, `errors.check_cap("NAME", needed, subject)`,
before the work it bounds; it reads the cap when called and raises the
cap's error, `<subject> needs <needed>, cap <NAME>=<limit>`.
"""

# Ground sets are iterated subset-by-subset; above this size exact
# enumeration is hopeless anyway.
GROUND_SIZE_CAP = 24

# Quotient vectors live in R^(2^k); a point reused as a setfunction on
# its own k parts is capped here too.
QUOTIENT_K_CAP = 8

# Budget for profile enumeration: the number of assignments visited,
# one per orbit of the oracle's twin swaps (labeled assignments when it
# declares no twins) for the exact strategy, and the requested sample
# count for the sampled one, checked before any evaluation.  The
# unlabeled cut-distance search checks its planned labeled-distance
# calls, summed over its plan entries (entry 0, the direct bijections,
# included), against it before the first call.
ENUM_ITERATION_CAP = 1 << 26

# Exhaustive submodularity / monotonicity checks.
EXHAUSTIVE_CHECK_CAP = 12

# Flat enumeration.
FLAT_COUNT_CAP = 100_000
FLAT_GROUND_CAP = 20

# Brute-force verifier for the matroid-union rank formula.
UNION_BRUTE_FORCE_CAP = 16

# Homomorphism counting visits up to targets^pattern maps.  A step
# graphon's steps are its targets, so graph nodes and graphon steps share
# one cap; 15 admits the 3-fold blow-up of C5 in the blowup-density suite.
HOM_PATTERN_NODE_CAP = 5
HOM_TARGET_NODE_CAP = 15

# Labeled cut distance: a Gray-code walk over the 2^m sets of the m
# classes of nodes that share a nonzero row of A_G - A_H, with a separable
# inner max; each step costs one update per class in the flipped class's
# row.  The cap is on the node count n, checked before the grouping.  A
# pair with no two equal rows has m = n: one call at the cap took 21 s
# for two random half-density graphs and 38 s for K24 vs the empty graph
# (Python 3.11.7, one core of a 2-vCPU host; the per-node walk it
# replaced took 22 and 35 s back to back on the same pairs).  The 24-node
# blow-up of a 4-node pair has at most 4 classes and takes under 1 ms.
CUT_DIST_NODE_CAP = 24

# Common node count of the two blow-ups searched for the unlabeled
# cut-distance upper bound; each candidate bijection is one labeled
# cut distance, 2^m steps for the m overlay cells it fills (at most n
# and at most the product of the two graphs' node counts), each of at
# most m updates.
BLOWUP_NODE_CAP = 12

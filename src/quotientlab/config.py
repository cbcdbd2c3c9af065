"""Enumeration caps and default thresholds.

Caps are module constants rather than hard-coded literals so that error
messages can name them and callers can see what budget was exceeded.
Operations read them when called.
"""

# Ground sets are iterated subset-by-subset; above this size exact
# enumeration is hopeless anyway.
GROUND_SIZE_CAP = 24

# Quotient vectors live in R^(2^k).
QUOTIENT_K_CAP = 8

# Budget for profile enumeration: the number of assignments visited,
# one per orbit of the oracle's twin swaps (labeled assignments when it
# declares no twins) for the exact strategy, and the requested sample
# count for the sampled one, checked before any evaluation.
ENUM_ITERATION_CAP = 1 << 26

# Exhaustive submodularity / monotonicity checks.
EXHAUSTIVE_CHECK_CAP = 12

# Flat enumeration.
FLAT_COUNT_CAP = 100_000
FLAT_GROUND_CAP = 20

# Quotient points reused as setfunctions on their own part set.
DERIVED_GROUND_CAP = 8

# Brute-force verifier for the matroid-union rank formula.
UNION_BRUTE_FORCE_CAP = 16

# Homomorphism counting visits up to targets^pattern maps.  A step
# graphon's steps are its targets, so graph nodes and graphon steps share
# one cap; 15 admits the 3-fold blow-up of C5 in the blowup-density suite.
HOM_PATTERN_NODE_CAP = 5
HOM_TARGET_NODE_CAP = 15

# Labeled cut distance (2^n subset scan with a separable inner max).
CUT_DIST_NODE_CAP = 24

# Common node count of the two blow-ups searched for the unlabeled
# cut-distance upper bound; each candidate bijection costs O(2^n * n).
BLOWUP_NODE_CAP = 12

"""Numerical tolerances used across the package.

All angle comparisons go through EPS_ANGLE; raw cosines are clamped into
[-1, 1] before any arccos. EPS_PM1 decides when an invariant counts as
+/-1, which collapses the chains and sets (Gamma, Delta) = (1, 0).
"""

# structure / rotation validation (unit coefficient vectors, SO(3) input)
EPS_ORTH = 1e-10

# frame Gram-vs-identity validation gate
EPS_FRAME = 1e-8

# relative rank-detection threshold for orthonormalization
EPS_RANK = 1e-10

# angle equality
EPS_ANGLE = 1e-8

# a leading vector's norm may miss 1, and its distance to the subspace 0, by this much
EPS_MEMBER = 1e-8

# slack of a generator's feasibility tests (sum of cos^2 <= 1, |xi| = 1, |Gamma| <= 1)
EPS_FEASIBLE = 1e-12

# squared length below which a 2-plane's companion gets no real remainder direction
EPS_REMAINDER = 1e-14

# a quaternionic Cholesky pivot within this of 0 is skipped as rank deficiency;
# one below -EPS_PIVOT makes the Gram infeasible
EPS_PIVOT = 1e-10

# a quaternionic Cholesky factor must reproduce its Gram to within this
EPS_FACTOR = 1e-8

# a constructed example may miss its requested parameters by this much
EPS_BUILD = 1e-9

# an addend's re-certified angles may differ from the parent's by this much
EPS_RECERT = EPS_ANGLE * 10

# default isoclinicity test tolerance (sup norm of G G^T - cos^2 Id)
EPS_ISO = 1e-8

# |v| > 1 - EPS_PM1 counts xi, chi or eta as its sign: X~ = X, Y~ = Y, Z~ = Z
EPS_PM1 = 1e-8

# gate for agreement of equivalent chain expressions
EPS_CHAIN = 1e-7

# Gram defect of stacked chain blocks still absorbed as roundoff
EPS_UNION = 1e-7

# orbit label comparison
EPS_ORBIT = 1e-6

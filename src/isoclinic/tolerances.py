"""Numerical tolerances used across the package.

All angle comparisons go through EPS_ANGLE; raw cosines are clamped into
[-1, 1] before any arccos. EPS_PM1 decides when an invariant counts as
+/-1 and triggers the degenerate chain conventions.
"""

# structure / rotation validation (unit coefficient vectors, SO(3) input)
EPS_UNIT = 1e-10
EPS_ORTH = 1e-10

# frame Gram-vs-identity validation gate
EPS_FRAME = 1e-8

# relative rank-detection threshold for orthonormalization
EPS_RANK = 1e-10

# angle equality
EPS_ANGLE = 1e-8

# an addend's re-certified angles may differ from the parent's by this much
EPS_RECERT = EPS_ANGLE * 10

# default isoclinicity test tolerance (sup norm of G G^T - cos^2 Id)
EPS_ISO = 1e-8

# |xi| > 1 - EPS_PM1 triggers the +/-1 chain conventions
EPS_PM1 = 1e-8

# gate for agreement of equivalent chain expressions
EPS_CHAIN = 1e-7

# Gram defect of stacked chain blocks still absorbed as roundoff
EPS_UNION = 1e-7

# deviation of the 8-dim construction's principal cosines from (1,...,1,g,g)
EPS_PRINCIPAL = 1e-6

# orbit label comparison (loosest: labels accumulate error through chains)
EPS_ORBIT = 1e-6

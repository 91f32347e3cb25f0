"""Certified sphere-packing density upper bounds via searched SDP certificates.

The pipeline: certificate sentences over seven base polynomials are compiled
into block semidefinite programs, solved (embedded first-order solver or an
external SDPA-family binary), and independently verified; a two-level search
(Gaussian-process proposals over the geometric parameters, Monte Carlo tree
search over sentences) drives the certified bound down.
"""

__version__ = "0.1.0"

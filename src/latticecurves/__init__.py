"""Exact toolkit for curves with a unique multiple point on toric surfaces.

All over exact rational arithmetic, in nine modules:

- `polygon`: lattice polygons, widths, canonical forms, enumeration;
- `laurent`: Laurent polynomials, resultants, implicitization;
- `linsys`: vanishing-order linear systems L(Δ, m);
- `classify`: intrinsic pairs and the classification scan;
- `families`: the five infinite families;
- `surface`: a fixed blow-up surface ledger;
- `seshadri`: Seshadri bounds;
- `wpp`: weighted-projective slope analysis;
- `errors`: the typed errors.

Each name is imported from its module, as in
``from latticecurves.linsys import compute_system``.  `cli` is the front end.
"""

__version__ = "0.1.0"

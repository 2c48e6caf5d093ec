"""Reduction types of prime-degree polynomial covers of the projective line.

Given a degree-p polynomial map of the projective line over a p-adic field
(p equal to the residue characteristic), this package computes the shape of
the minimal semi-stable model separating the ramified fibers: the components
upstairs and downstairs, the intersection trees with exact singular-point
thicknesses, and the maps between the two sides.  A symbolic blow-up engine
recomputes the same picture from first principles so the closed-form answers
can be cross-checked on exact instances.  Records are plain classes that, like
Element and Poly, are not mutated after construction.  No function builds a
reference cycle, so reference counting frees all a request builds (tests/test_lifetimes.py).
"""

from .field import (
    DivisionByZero,
    Element,
    FieldContext,
    NegativeValuation,
    parse_rat,
)

__version__ = "0.1.0"

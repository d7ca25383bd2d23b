"""Numerical laboratory for the averaging operator on weighted
inductive limits of sequence spaces: exact triangular algebra, resolvent
sandwich bounds, spectrum classification, ergodic iteration and the
finite-type continuity criteria."""

__version__ = "0.1.0"

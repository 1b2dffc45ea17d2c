"""Poset interval machinery: graded posets, flag invariants, triangulations,
and the transforms connecting them, all in exact rational arithmetic.

Importing the package loads none of its modules; import the layer you use,
as in `from posetops import flags`.  The command line loads the layers a
command runs: `poset` and `index` load errors, posets, ncpoly and flags;
`op` adds operators; `verify` adds verify, complexes and operators.
"""

__version__ = "0.1.0"

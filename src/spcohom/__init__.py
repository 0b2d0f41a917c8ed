"""Abelian ideals of the Borel subalgebra of sp(2n) and the cohomology of its
nilradical, with exhaustive exact verification of the correspondence between
the two.

The package root exports only __version__, so that importing a module, or
running one command, compiles only the modules it uses; import names from
their module, e.g. ``from spcohom.weyl import SignedPerm``."""

__version__ = "0.1.0"

"""poisson-forge: exact verification of Poisson-Lie structures and their quantization.

A small computer-algebra kernel over Q(i)[[hbar]]/(hbar^N) that constructs
Lie bialgebras, r-matrices, Poisson-Lie group bivectors, momentum-map
identities, Poisson reduction, presented noncommutative algebras, Hopf
structures and quantum momentum maps, and checks the defining identities of
each as exact algebraic statements.

The submodules are the API (``from poisson_forge.lie import LieAlgebra``);
importing the package loads none of them.
"""

__version__ = "0.1.0"

# The N of Q(i)[[hbar]]/(hbar^N) that the command line's --order and the
# shipped fixture builders default to; no computation reads it implicitly.
ORDER = 6

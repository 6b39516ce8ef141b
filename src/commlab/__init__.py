"""comm-lab: exact computations with commensurators of solvable
S-arithmetic groups.

Subpackage map:

* ``f2poly``, ``ratfun``, ``polymat``, ``matrices``, ``hnf`` -- the
  exact-arithmetic substrate: F2 Laurent polynomials, the text format of
  an F2(t) entry (no arithmetic in F2(t) is done), F2[u, 1/u]-linear maps
  of F2[t, 1/t] (u = t**n) stored as the images of 1, t, ..., t**(n-1),
  one int mask each, with a fraction-free elimination over F2[u],
  matrices over Q (an integer matrix over one denominator, with a
  fraction-free elimination over Z), and Hermite normal forms over
  F2[s, 1/s];
* ``lamplighter`` -- the lamplighter group and its commensurations in
  canonical (derivation, equivariant matrix, flip) coordinates;
* ``storus`` -- S-arithmetic ranks of quadratic tori with a p-adic
  square oracle;
* ``unipotent`` -- unitriangular groups: exact log/exp, unique p-th
  roots, S-integrality, Lie-algebra automorphisms;
* ``solvable`` -- Baumslag-Solitar commensurations, the
  inner-derivation solver, and the iterated semidirect-product law;
* ``errors`` -- the domain errors, each with the code the CLI reports
  (its class name), and ``json_int``, ``json_list`` and ``json_matrix``,
  the readers of an integer field, a list and a matrix of JSON input;
* ``frozen`` -- ``Value``, the base of every value class, whose
  equality, hash and dataclass-style repr come from its ``__slots__``
  (a ``_`` slot is a cache, not a field), and ``Frozen``, the immutable
  values of ``storus`` and ``solvable``;
* ``cli`` -- the ``comm-lab`` command-line interface, and ``demos``,
  the worked computations its ``demo`` subcommand reproduces.
"""

__version__ = "0.1.0"

"""Exact equivariant operator calculus for rank-one sheaf counting on chains
of rational surface charts times a projective line.

Subpackage map:

- ``exact``        arithmetic kernel (polynomials, rational functions, series)
                   and exact linear algebra over QQ or rational functions
- ``partitions``   partitions, multipartitions, leg diagrams, slice chains
- ``surface``      chain-of-spheres surface geometry: fixed points, weights, pairing
- ``fock``         bosonic creation-operator algebra and its geometric pairing
- ``wedge``        charged-fermion (infinite wedge) model and loop-matrix operators
- ``vertex``       box-counting vertex/edge calculus and minimal curve configurations
- ``dictionary``   transport between the bosonic and fermionic models, operator suite
- ``cli``          command line tool (planned in the ROADMAP item "The ``andt``
                   command-line tool and one report type"; not written yet)
"""

__version__ = "0.1.0"

"""repro: Monadic datalog over finite structures with bounded treewidth.

A full reproduction of Gottlob, Pichler & Wei (PODS 2007 / arXiv
0809.3140): the quasi-guarded monadic datalog evaluation pipeline
(Theorem 4.4), the generic MSO-to-datalog compiler (Theorem 4.5), the
hand-crafted 3-Colorability and PRIMALITY programs (Section 5), and the
Table 1 experiment harness -- on top of from-scratch substrates for finite
structures, tree decompositions, datalog and MSO.

Each layer documents its architecture beside its code:
``src/repro/core/README.md`` (the compiler, the solver and its front end,
admission, and the substitutions this reproduction makes for tools the
paper used), ``src/repro/datalog/README.md`` (evaluation) and
``src/repro/service/README.md`` (serving).
"""

from . import (
    admission,
    bench,
    core,
    datalog,
    errors,
    mso,
    problems,
    service,
    structures,
    treewidth,
)

__version__ = "1.0.0"

__all__ = [
    "admission",
    "bench",
    "core",
    "datalog",
    "errors",
    "mso",
    "problems",
    "service",
    "structures",
    "treewidth",
    "__version__",
]

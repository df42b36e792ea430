"""Quickstart: the paper's running example, end to end.

Builds the Example 2.1 schema, decomposes it (Example 2.2 / Figure 1:
treewidth 2), and answers the PRIMALITY question along every route the
library offers -- brute force, the Figure 6 dynamic program, the
Section 5.3 enumeration, the datalog-interpreted program, and direct
MSO evaluation of the Example 2.6 query.

Run:  python examples/quickstart.py
"""

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.mso import evaluate, formulas
from repro.problems import (
    PrimalityDatalog,
    prime_attributes_direct,
    primality_direct,
)
from repro.structures import gaifman_graph, running_example
from repro.treewidth import decompose_structure, treewidth_exact


def main() -> None:
    schema = running_example()
    print("Schema (Example 2.1):")
    print(schema.describe())
    print()

    keys = sorted("".join(sorted(k)) for k in schema.candidate_keys())
    print(f"Candidate keys: {keys}  (the paper: abd and acd)")

    structure = schema.to_structure()
    print(f"As a tau-structure: {structure}")
    print(f"Exact treewidth: {treewidth_exact(gaifman_graph(structure))}"
          "  (Example 2.2: tw = 2)")
    td = decompose_structure(structure)
    print(f"Heuristic decomposition: {td}")
    print()

    print("PRIMALITY, attribute by attribute (Figure 6 dynamic program):")
    for attribute in schema.attributes:
        verdict = "prime" if primality_direct(schema, attribute, td) else "not prime"
        print(f"  {attribute}: {verdict}")
    print()

    primes = prime_attributes_direct(schema, td)
    print(f"All primes via the Section 5.3 enumeration: "
          f"{''.join(sorted(primes))}  (the paper: a, b, c, d)")

    datalog = PrimalityDatalog(schema)
    print(f"Datalog interpreter agrees on 'a': {datalog.decide('a', td)}")
    print(f"Datalog interpreter agrees on 'e': {not datalog.decide('e', td)}")

    phi = formulas.primality("x")
    print(f"MSO query of Example 2.6 on 'a': "
          f"{evaluate(structure, phi, {'x': 'a'})}")
    print(f"Brute force agrees: "
          f"{''.join(sorted(schema.prime_attributes_bruteforce()))}")


if __name__ == "__main__":
    main()

"""The Section 5 algorithms: 3-Colorability and PRIMALITY, plus workloads."""

from .generators import (
    TABLE1_SIZES,
    Table1Instance,
    random_graph,
    random_partial_ktree,
    random_schema,
    random_tree_graph,
    table1_instance,
    table1_schema,
)
from .abduction import AbductionProblem, HornClause
from .k_coloring import (
    chromatic_number,
    is_valid_k_coloring,
    k_coloring_bruteforce,
    k_coloring_direct,
)
from .subschema import (
    SubschemaPrimalityAlgebra,
    is_prime_in_subschema,
    is_prime_in_subschema_bruteforce,
)
from .primality import (
    PrimalityAlgebra,
    PrimalityDatalog,
    encode_for_primality,
    enumeration_program,
    load_for_primality,
    prepare_decision_decomposition,
    prepare_enumeration_decomposition,
    primality_direct,
    primality_program,
    primality_registry,
    prime_attributes_datalog,
    prime_attributes_direct,
    prime_attributes_rerooting,
)
from .three_coloring import (
    ThreeColoringDatalog,
    encode_for_three_coloring,
    load_for_three_coloring,
    three_coloring_direct,
    three_coloring_program,
)

__all__ = [
    "AbductionProblem",
    "HornClause",
    "PrimalityAlgebra",
    "SubschemaPrimalityAlgebra",
    "chromatic_number",
    "is_prime_in_subschema",
    "is_prime_in_subschema_bruteforce",
    "is_valid_k_coloring",
    "k_coloring_bruteforce",
    "k_coloring_direct",
    "PrimalityDatalog",
    "TABLE1_SIZES",
    "Table1Instance",
    "ThreeColoringDatalog",
    "encode_for_primality",
    "encode_for_three_coloring",
    "enumeration_program",
    "load_for_primality",
    "load_for_three_coloring",
    "prepare_decision_decomposition",
    "prepare_enumeration_decomposition",
    "primality_direct",
    "primality_program",
    "primality_registry",
    "prime_attributes_datalog",
    "prime_attributes_direct",
    "prime_attributes_rerooting",
    "random_graph",
    "random_partial_ktree",
    "random_schema",
    "random_tree_graph",
    "table1_instance",
    "table1_schema",
    "three_coloring_direct",
    "three_coloring_program",
]

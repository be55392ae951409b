"""Exact computational toolkit for finite commutative unitary rings:
unit groups and their Davenport constants, ideal arithmetic and maximal-ideal
indices, and idempotent-product-free sequence invariants with constructive
witnesses."""

from .errors import (AxiomViolation, BudgetExceeded, InternalConsistencyError,
                     SpecParseError)
from .rings import (FiniteRing, TABLE_CAP, VALIDATION_CAP, idempotents,
                    inverse, is_field, make_from_table, make_gf,
                    make_poly_quotient, make_product, make_zmod,
                    units, validate_ring)
from .ideals import (Ideal, crt_solve, ideal_generated_by, ideal_index,
                     ideal_power, ideal_product, maximal_ideals, nilradical,
                     power_chain, quotient_ring, unit_ideal)
from .sequences import Sequence, is_idempotent_product_free, product_set
from .search import max_free_sequence
from .groups import (AbelianGroupView, DavenportResult, davenport,
                     invariant_factors, is_zero_sum_free, synthetic_group,
                     unit_group_view, validate_group)
from .erdos_burgess import (ALL_INDICES_ONE, BOTH, LOCAL, UNKNOWN,
                            CoincidenceRecord, ConstructionTrace,
                            InvariantReport, LocalCaseCertificate,
                            SquarefreeCaseCertificate, construct_extremal,
                            dedekind_crosscheck_int, dedekind_crosscheck_poly,
                            exact_eb, local_case_certificate, report,
                            squarefree_case_certificate)

__version__ = "0.1.0"

# The CLI module is imported on first use, so that `python -m ebring.cli` runs
# it once, as __main__, instead of after a first import through this package.
_CLI_NAMES = {"RingSpec", "build_ring", "parse_group_spec", "parse_ring_spec",
              "serialize_report"}


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

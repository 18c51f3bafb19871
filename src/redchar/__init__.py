"""redchar: exact character theory of small finite reductive groups.

Builds GL_n(q) and SL_n(q) for n <= 3 with every element explicit (found
from row codes: a cofactor table gives the determinant of every matrix at
once, and inverses and transposes are table lookups), computes exact
character tables, Deligne-Lusztig virtual characters, Lusztig series and
Jordan decompositions, and machine-verifies the duality-involution
identities relating characters to their duals.
"""

from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, zeta
from .finitefield import (
    FiniteField,
    FiniteFieldElement,
    discrete_log,
    finite_field,
    multiplicative_embedding,
)
from .intlinalg import FiniteAbelianGroup, IntegerMatrix, smith_normal_form
from .rootdatum import (
    BasedRootDatum,
    FrobeniusDatum,
    PinnedAutomorphism,
    center_component_group,
    chevalley_datum_involution,
    dual_automorphism,
    dual_datum,
    h1_frobenius,
    named_datum,
    weyl_group,
)
from .groups import (
    GroupAutomorphism,
    GroupRealization,
    GroupSpec,
    adjoint_action_representatives,
    chevalley_involution,
    duality_involution,
    maximal_tori,
)
from .chartable import (
    CharacterTable,
    ClassFunction,
    character_table,
    dual_character,
    induce_from_subgroup,
    inner_product,
    table_of,
    twist_by_automorphism,
    twisted_fs_indicator,
)
from .dl import (
    DLCharacter,
    DLContext,
    LusztigSeries,
    SemisimpleClassLabel,
    TorusCharacter,
    classify_pair,
    dl_character,
    dl_context,
    epsilon_group,
    epsilon_sign,
    epsilon_torus,
    lusztig_series,
    restrict_series,
)
from .jordan import (
    JordanWitness,
    disconnected_jordan,
    dual_centralizer,
    frobenius_eigenvalue,
    jordan_bijection,
    verify_dual_equivariance,
    verify_duality_biconditional,
)
from .gelfandgraev import (
    WhittakerDatum,
    gelfand_graev,
    generic_constituent,
    verify_generic_duality,
    whittaker_data,
)
from .reports import CheckReport, emit_report
from .cache import TableCache

__version__ = "0.1.0"

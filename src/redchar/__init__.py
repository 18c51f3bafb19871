"""redchar: exact character theory of small finite reductive groups.

Builds GL_n(q) and SL_n(q) for n <= 3 with every element explicit (found
from row codes: a cofactor table gives the determinant of every matrix at
once, and inverses and transposes are table lookups), computes exact
character tables, Deligne-Lusztig virtual characters, Lusztig series and
Jordan decompositions, and machine-verifies the duality-involution
identities relating characters to their duals.

The public names below load lazily (PEP 562): `import redchar` imports no
submodule, and the first access to a name (or to a submodule as an
attribute) imports the module that defines it, so a process pays only for
the modules it uses.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "cyclotomic": "CyclotomicNumber cyclotomic_polynomial zeta",
    "finitefield": "FiniteField finite_field",
    "intlinalg": "FiniteAbelianGroup IntegerMatrix smith_normal_form",
    "rootdatum": "BasedRootDatum center_component_group h1_frobenius named_datum",
    "groups": "GroupRealization GroupSpec",
    "automorphisms": "GroupAutomorphism adjoint_action_representatives chevalley_involution "
                     "duality_involution",
    "chartable": "CharacterTable ClassFunction character_table dual_character "
                 "induce_from_subgroup inner_product table_of twist_by_automorphism "
                 "twisted_fs_indicator",
    "dl": "DLCharacter DLContext LusztigSeries SemisimpleClassLabel TorusCharacter "
          "classify_pair dl_character dl_context epsilon_group lusztig_series "
          "restrict_series",
    "jordan": "JordanWitness disconnected_jordan dual_centralizer "
              "frobenius_eigenvalue jordan_bijection verify_dual_equivariance "
              "verify_duality_biconditional",
    "gelfandgraev": "WhittakerDatum gelfand_graev verify_generic_duality whittaker_data",
    "reports": "CheckReport emit_report",
    "cache": "TableCache",
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # submodules stay reachable as attributes
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

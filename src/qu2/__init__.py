"""Exact symbolic computation in the 2-adic ring C*-algebra.

Finite sums of monomials S_alpha U^k S_beta* with exact rational coefficients,
their canonical forms and products; the extended Thompson-like group of
tree-pair diagrams with charges; the canonical representation on l2(Z) as a
semantic oracle; and a workbench for permutative endomorphisms and their
extension problem.

`import qu2` loads no layer: each name below is imported from its home
module on first use, so `qu2.eq` loads `qu2.element` (and what it needs)
and `qu2.Diagram` loads `qu2.wgroup` as well.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "CapacityError DomainError ParseError",
    "words": "Word all_words decode flip is_partition is_prefix lex_index "
             "parse_word word_str",
    "monomial": "Monomial ONE adjoint_mono expand_right mono_mul mono_str "
                "parse_mono push_u_through u_pow",
    "element": "Element Membership bd_v_factor element_str eq flip_flop "
               "from_json in_w is_unitary membership normalize one "
               "parse_element phi proj putnam_form s s_star to_json "
               "total_charge u zero",
    "canrep": "BasisVector DecoratedPermutative Zero apply_basis dp_split "
              "mono_image phase_apply semantic_eq",
    "wgroup": "Diagram charge diagram_from_json diagram_to_json from_element "
              "group_inv group_mul identity_diagram leaves reduce render "
              "to_element tree_from_words",
    "endo": "ExtendedEndo PermUnitary ProbeResult automorphism_probe "
            "check_extension check_extension_parts constructive_family "
            "enumerate_extendible enumerate_menu enumerate_u_p "
            "enumerate_u_sigma extend lambda_apply make_inner_phi make_u_p "
            "make_u_sigma mixed_template parse_cycles parse_template "
            "perm_to_cycles perm_unitary perm_unitary_from_cycles "
            "perm_unitary_from_element template_labels u_templates_labeled",
}
# the one name -> home module table
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """PEP 562 hook: import an exported name's home module on first access.
    Any other name, submodules included, is an AttributeError, so that
    `from qu2 import endo` falls back to importing the submodule."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

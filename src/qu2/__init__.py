"""Exact symbolic computation in the 2-adic ring C*-algebra.

Finite sums of monomials S_alpha U^k S_beta* with exact rational coefficients,
their canonical forms and products; the extended Thompson-like group of
tree-pair diagrams with charges; the canonical representation on l2(Z) as a
semantic oracle; and a workbench for permutative endomorphisms and their
extension problem.
"""

from .errors import CapacityError, DomainError, ParseError
from .words import (
    Word,
    all_words,
    decode,
    flip,
    is_partition,
    is_prefix,
    lex_index,
    parse_word,
    word_str,
)
from .monomial import (
    Monomial,
    ONE,
    adjoint_mono,
    expand_right,
    mono_mul,
    mono_str,
    parse_mono,
    push_u_through,
    u_pow,
)
from .element import (
    Element,
    Membership,
    bd_v_factor,
    element_str,
    eq,
    flip_flop,
    from_json,
    is_unitary,
    membership,
    normalize,
    one,
    parse_element,
    phi,
    proj,
    putnam_form,
    s,
    s_star,
    to_json,
    total_charge,
    u,
    zero,
)
from .canrep import (
    BasisVector,
    DecoratedPermutative,
    Zero,
    apply_basis,
    dp_split,
    mono_image,
    phase_apply,
    semantic_eq,
)
from .wgroup import (
    Diagram,
    charge,
    diagram_from_json,
    diagram_to_json,
    from_element,
    group_inv,
    group_mul,
    identity_diagram,
    leaves,
    reduce,
    render,
    to_element,
    tree_from_words,
)
from .endo import (
    ExtendedEndo,
    PermUnitary,
    ProbeResult,
    automorphism_probe,
    check_extension,
    check_extension_parts,
    constructive_family,
    enumerate_extendible,
    enumerate_menu,
    enumerate_u_p,
    enumerate_u_sigma,
    extend,
    lambda_apply,
    make_inner_phi,
    make_u_p,
    make_u_sigma,
    mixed_template,
    parse_cycles,
    parse_template,
    perm_to_cycles,
    perm_unitary,
    perm_unitary_from_cycles,
    perm_unitary_from_element,
    template_labels,
    u_templates_labeled,
)

__version__ = "0.1.0"

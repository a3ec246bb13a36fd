"""Permutative endomorphisms and their extensions.

A permutation rho of the 2^k words of length k induces the unitary
u = sum_w S_{rho(w)} S_w* and the endomorphism S_i -> u S_i.  Such an
endomorphism extends past the gauge-invariant part exactly when some
unitary Utilde satisfies

    (ext1)  Utilde (u S_2) = u S_1
    (ext2)  Utilde (u S_1) = (u S_2) Utilde

check_extension decides both equations by element arithmetic for any
candidate Utilde; the constructive families (make_u_p, make_u_sigma,
make_inner_phi) build unitaries that pass it for the standard template
menu, and enumerate_extendible classifies all extendible permutations of a
level by a search that both equations prune, word by word, and that the
extension checker verifies.
"""

from __future__ import annotations

import itertools
import re
from math import factorial
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .element import (Element, _expand, _refine, eq, flip_flop, is_unitary,
                      normalize, one, parse_element, phi, s, total_charge, u)
from .errors import CapacityError, DomainError, ParseError
from .monomial import Monomial, new_monomial
from .wgroup import from_element, reduce, to_element
from .words import Word, all_words, decode, lex_index

Perm = Tuple[int, ...]  # perm[i] = lex index of the image of the i-th word


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


def perm_from_word_map(k: int, mapping: Dict[Word, Word]) -> Perm:
    words = all_words(k)
    if sorted(mapping) != words or sorted(mapping.values()) != words:
        raise DomainError("word map is not a permutation of the length-k words")
    return tuple(lex_index(mapping[w]) for w in words)


def perm_to_cycles(perm: Perm) -> str:
    """Disjoint-cycle string on 1-based lex indices, e.g. '(1 3 4 2)'."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "id"


def parse_cycles(size: int, text: str) -> Perm:
    """Inverse of perm_to_cycles; also accepts dense digits like '(1342)'
    when every index is a single digit."""
    text = text.strip()
    perm = list(range(size))
    if text in ("id", "()", ""):
        return tuple(perm)
    pos = 0
    while pos < len(text):
        if text[pos] != "(":
            raise ParseError("expected '('", pos)
        end = text.find(")", pos)
        if end < 0:
            raise ParseError("unbalanced cycle", pos)
        body = text[pos + 1:end].replace(",", " ")
        tokens = body.split() if " " in body.strip() else body.strip()
        try:
            idx = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"bad cycle {text[pos:end+1]!r}", pos) from None
        if len(idx) < 2 or len(set(idx)) != len(idx) \
                or any(i < 1 or i > size for i in idx):
            raise ParseError(f"bad cycle {text[pos:end+1]!r}", pos)
        for a, b in zip(idx, idx[1:] + idx[:1]):
            if perm[a - 1] != a - 1:
                raise ParseError(f"index {a} repeated across cycles", pos)
            perm[a - 1] = b - 1
        pos = end + 1
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return tuple(perm)


class PermUnitary(NamedTuple):
    level: int
    perm: Perm

    @property
    def element(self) -> Element:
        words = all_words(self.level)
        return Element({Monomial(words[self.perm[i]], 0, words[i]): 1
                        for i in range(len(words))})

    def s_images(self) -> Tuple[Element, Element]:
        """(u S_1, u S_2), read off the permutation: for level k >= 1,
        u S_i = sum_y S_rho(iy) S_y* with y over the length-(k-1) words,
        and iy has lex index j for i = 1 and half + j for i = 2 when y has
        index j.  At level 0, u = 1 and u S_i = S_i."""
        if self.level == 0:
            return s((1,)), s((2,))
        words = all_words(self.level)
        ys = all_words(self.level - 1)
        half = len(ys)
        return tuple(Element({Monomial(words[self.perm[start + j]], 0, y): 1
                              for j, y in enumerate(ys)})
                     for start in (0, half))

    def cycles(self) -> str:
        return perm_to_cycles(self.perm)


def perm_unitary(level: int, perm: Sequence[int]) -> PermUnitary:
    perm = tuple(perm)
    if sorted(perm) != list(range(1 << level)):
        raise DomainError(f"not a permutation of {1 << level} lex indices")
    return PermUnitary(level, perm)


def perm_unitary_from_cycles(level: int, text: str) -> PermUnitary:
    if level < 0:
        raise DomainError(f"level must be >= 0, got {level}")
    return PermUnitary(level, parse_cycles(1 << level, text))


def perm_unitary_from_element(e: Element, level: Optional[int] = None) -> PermUnitary:
    """Recover (level, permutation) from a unitary in the matrix algebra
    spanned by the S_a S_b* with |a| = |b| = level."""
    if level is None:
        level = max((max(len(m.alpha), len(m.beta)) for m in e.terms), default=0)
    f = normalize(e, level)
    mapping = {}
    for m, c in f.terms.items():
        if c != 1 or m.k != 0 or len(m.alpha) != level or len(m.beta) != level:
            raise DomainError("not a permutation unitary at this level")
        mapping[m.beta] = m.alpha
    return PermUnitary(level, perm_from_word_map(level, mapping))


# extension checking ----------------------------------------------------------

def check_extension_parts(pu: PermUnitary, u_tilde: Element) -> Tuple[bool, bool]:
    """(ext1, ext2) truth values for the candidate image of U."""
    if not is_unitary(u_tilde):
        raise DomainError("candidate image of U must be unitary")
    return _extension_parts(pu, u_tilde)


def _extension_parts(pu: PermUnitary, u_tilde: Element) -> Tuple[bool, bool]:
    """(ext1, ext2) for a candidate the caller has checked is unitary."""
    s1t, s2t = pu.s_images()
    return eq(u_tilde * s2t, s1t), eq(u_tilde * s1t, s2t * u_tilde)


def check_extension(pu: PermUnitary, u_tilde: Element) -> bool:
    ext1, ext2 = check_extension_parts(pu, u_tilde)
    return ext1 and ext2


class ExtendedEndo(NamedTuple):
    u: PermUnitary
    u_tilde: Element
    verified: bool


def extend(pu: PermUnitary, u_tilde: Element) -> ExtendedEndo:
    return ExtendedEndo(pu, u_tilde, check_extension(pu, u_tilde))


# template menu ---------------------------------------------------------------

def phi_pow_proj(h: int, i: int) -> Element:
    """phi^h(P_i) = sum over length-h words a of P_{a i}."""
    return Element({Monomial(a + (i,), 0, a + (i,)): 1 for a in all_words(h)})


def mixed_template(k: int, h: int, variant: int) -> Element:
    if not 0 <= h <= k - 2:
        raise DomainError(f"h must lie in 0..{k - 2}")
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    n = 1 << (k - 1)
    i, j = (1, 2) if variant == 1 else (2, 1)
    return phi_pow_proj(h, i) * u(n) + phi_pow_proj(h, j) * u(-n)


# A label names a template at level k: U+ / U- for U^{±2^{k-1}}, M{v}:{h}
# for mixed_template(k, h, v), and AD:cycles / AD*:cycles for p U p* /
# p U* p*, with p the level-(k-1) permutation unitary of the cycles.  Its
# kind, ("pure", sign), ("mixed", h, variant) or ("inner", pperm, with_flip),
# selects the constructive family.  No two menu entries are equal, so the
# menu needs no dedupe: total charge (invariant under re-expansion and
# conjugation) is ±2^{k-1} for U±, 0 for every M, 1 for AD and -1 for AD*,
# and p U p* = q U q* makes the charge-0 permutation unitary q* p commute
# with U, which only the identity does.

_TEMPLATE_LABEL = re.compile(r"^(?:U([+-])|M([12]):(\d+)|AD(\*?):(.+))$")
_MAX_MENU_LEVEL = 4  # the inner section has 2 (2^{k-1})! entries


def parse_template(k: int, label: str) -> Optional[Tuple[tuple, Element]]:
    """(kind, element) of the template with this label at level k >= 2, or
    None when the text is not a template label."""
    m = _TEMPLATE_LABEL.match(label)
    if m is None:
        return None
    if k < 2:
        raise DomainError(f"template menu needs level k >= 2, got {k}")
    pure, variant, h, star, cycles = m.groups()
    if pure:
        kind = ("pure", 1 if pure == "+" else -1)
    elif variant:
        kind = ("mixed", int(h), int(variant))
    else:
        kind = ("inner", parse_cycles(1 << (k - 1), cycles), bool(star))
    return kind, _kind_template(k, kind)


def _kind_template(k: int, kind: tuple) -> Element:
    """The menu's element of this kind at level k."""
    if kind[0] == "pure":
        return u(kind[1] << (k - 1))
    if kind[0] == "mixed":
        return mixed_template(k, kind[1], kind[2])
    _tag, pperm, with_flip = kind
    return _inner_image(PermUnitary(k - 1, pperm), with_flip)


def template_labels(k: int) -> Iterator[str]:
    """The menu's labels at level k, lazily and in order: U+, U-, M1:h and
    M2:h for h = 0..k-2, then AD:cycles and AD*:cycles for each level-(k-1)
    permutation in lex order.  Reaching the inner section past level
    _MAX_MENU_LEVEL raises CapacityError."""
    yield "U+"
    yield "U-"
    for h in range(k - 1):
        for variant in (1, 2):
            yield f"M{variant}:{h}"
    if k > _MAX_MENU_LEVEL:
        raise CapacityError(
            f"the level-{k} menu has {_menu_size(k)} templates; "
            f"the full menu needs level <= {_MAX_MENU_LEVEL}")
    for pperm in itertools.permutations(range(1 << (k - 1))):
        cycles = perm_to_cycles(pperm)
        yield f"AD:{cycles}"
        yield f"AD*:{cycles}"


def _menu_size(k: int) -> int:
    """Entries of template_labels(k): U+ and U-, 2(k-1) mixed, and
    2 (2^{k-1})! inner."""
    return 2 + 2 * (k - 1) + 2 * factorial(1 << (k - 1))


def u_templates_labeled(k: int) -> List[Tuple[str, Element]]:
    """The standard menu of candidate images of U at level k as (label,
    element) pairs: U^{±2^{k-1}}, the mixed projection pairs for each h,
    and the inner images p U p* and p U* p* over the level-(k-1)
    permutation unitaries."""
    return [(label, parse_template(k, label)[1]) for label in template_labels(k)]


# constructive families --------------------------------------------------------

def make_u_p(p: Sequence[int], sign: int) -> PermUnitary:
    """u_p^+ (sign +1) or u_p^- (sign -1) at level k = |mu| + 1: the
    permutation mu -> p(mu) braided with a final letter, extendible with
    image of U equal to U^{±2^{k-1}}."""
    p = tuple(p)
    size = len(p)
    if size & (size - 1) or size == 0:
        raise DomainError("p must permute the words of some fixed length")
    km1 = size.bit_length() - 1
    if sorted(p) != list(range(size)):
        raise DomainError("p is not a permutation")
    words = all_words(km1)
    mapping: Dict[Word, Word] = {}
    for idx, mu in enumerate(words):
        pmu = words[p[idx]]
        if sign > 0:
            mapping[(1,) + pmu] = mu + (1,)
            mapping[(2,) + pmu] = mu + (2,)
        else:
            mapping[(2,) + pmu] = mu + (1,)
            mapping[(1,) + pmu] = mu + (2,)
    return PermUnitary(km1 + 1, perm_from_word_map(km1 + 1, mapping))


def make_u_sigma(k: int, h: int, variant: int,
                 side1: Optional[Sequence[int]] = None,
                 side2: Optional[Sequence[int]] = None) -> PermUnitary:
    """Extendible unitary for the mixed template of the given variant.

    Each side is a permutation pi of the length-(k-2) words (as lex
    indices).  Write x = a b with |a| = h and pi(x) = a' b', and let c be
    the side's letter at position h+1.  Side 1 maps 2 a' c b' to a c b 2
    and 1 a' c b' to a c b 1; side 2 swaps those endings.  Trivial sides
    reproduce the plain well-suited matching; all ((2^(k-2))!)^2 choices
    are extendible and distinct.
    """
    if k < 2 or not 0 <= h <= k - 2:
        raise DomainError(f"need k >= 2 and 0 <= h <= k-2, got k={k}, h={h}")
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    words = all_words(k - 2)

    def cook(side):
        if side is None:
            return identity_perm(len(words))
        pi = tuple(side)
        if sorted(pi) != list(range(len(words))):
            raise DomainError(
                f"side is not a permutation of the length-{k - 2} words")
        return pi

    def at(w: Word, c: int) -> Word:
        return w[:h] + (c,) + w[h:]

    # side 1 rides the U^{+2^{k-1}} projection, side 2 the U^{-2^{k-1}} one;
    # the variant decides which letter at position h+1 each side carries.
    # On the + side the 2-prefixed block must land on words ending in 2
    # (so the shift completes them without a leftover U), on the - side
    # on words ending in 1; the 1-prefixed blocks take the flipped endings.
    c1, c2 = (1, 2) if variant == 1 else (2, 1)
    mapping: Dict[Word, Word] = {}
    for x, y1, y2 in zip(words, cook(side1), cook(side2)):
        src1, src2 = at(words[y1], c1), at(words[y2], c2)
        mapping[(2,) + src1] = at(x, c1) + (2,)
        mapping[(1,) + src1] = at(x, c1) + (1,)
        mapping[(2,) + src2] = at(x, c2) + (1,)
        mapping[(1,) + src2] = at(x, c2) + (2,)
    return PermUnitary(k, perm_from_word_map(k, mapping))


def enumerate_u_p(k: int, sign: int) -> Iterator[PermUnitary]:
    """All u_p^± at level k in lex order of p."""
    for p in itertools.permutations(range(1 << (k - 1))):
        yield make_u_p(p, sign)


def enumerate_u_sigma(k: int, h: int, variant: int) -> Iterator[PermUnitary]:
    """All mixed-template constructions for (k, h, variant), in lex order
    of (side 1, side 2)."""
    pis = list(itertools.permutations(range(1 << (k - 2))))
    for side1, side2 in itertools.product(pis, repeat=2):
        yield make_u_sigma(k, h, variant, side1, side2)


def make_inner_phi(p: PermUnitary, with_flip: bool) -> ExtendedEndo:
    """The inner-perturbation endomorphism x -> p x p* (composed with the
    flip-flop when asked): u = p phi(p*) (times f), image of U = pUp*
    (resp. pU*p*)."""
    p_el = p.element
    u_el = p_el * phi(p_el.adjoint())
    if with_flip:
        u_el = u_el * flip_flop()
    pu = perm_unitary_from_element(u_el, p.level + 1)
    return extend(pu, _inner_image(p, with_flip))


def _inner_image(p: PermUnitary, with_flip: bool) -> Element:
    """p U p*, or p U* p* with the flip-flop."""
    p_el = p.element
    return p_el * u(-1 if with_flip else 1) * p_el.adjoint()


# enumeration ------------------------------------------------------------------

_MAX_BRUTE_LEVEL = 4  # one template; U+ and U- list 40,320 results there
_MAX_BRUTE_MENU_LEVEL = 3  # the whole menu; level 4 has 80,648 templates
_MAX_FAMILY = 100_000  # members a constructive family may list


def enumerate_extendible(k: int, template: Element, mode: str = "brute",
                         jobs: int = 1) -> List[PermUnitary]:
    """Every u in the level-k permutation unitaries extendible with the given
    template as image of U, in lex order of the permutation.

    brute mode is a complete classification (k <= 4): ext1 forces rho on the
    words 1y from rho on the words 2y, and a search over the 2-half prunes
    every collision and every partial rho that already breaks ext2
    (_extendible).  Both extension equations are then checked on each
    survivor, as check_extension does, with the template checked for
    unitarity once.  constructive mode replays the closed-form family
    attached to the template and raises a domain error for templates with
    no such family.  jobs changes nothing, since the search is serial; it
    stays only because the benchmark's sweep passes jobs=1.
    """
    if mode == "constructive":
        return constructive_family(k, template)
    if mode != "brute":
        raise DomainError(f"unknown mode {mode!r}")
    if k < 0:
        raise DomainError(f"level must be >= 0, got {k}")
    if k > _MAX_BRUTE_LEVEL:
        raise CapacityError(
            f"brute force over {1 << k}! permutations is not tractable; "
            f"level must be <= {_MAX_BRUTE_LEVEL}")
    if not is_unitary(template):
        raise DomainError("candidate image of U must be unitary")
    found = sorted(perm for perm in _extendible(k, template)
                   if all(_extension_parts(PermUnitary(k, perm), template)))
    return [PermUnitary(k, perm) for perm in found]


def enumerate_menu(k: int, mode: str = "brute") -> Iterator[Tuple[str, PermUnitary]]:
    """(label, u) for each menu template at level k, in menu order, and each
    u that enumerate_extendible lists for it.  Constructive mode reads each
    family off the label's kind.  Brute force over the whole menu past
    level _MAX_BRUTE_MENU_LEVEL is refused at once, before any template is
    searched."""
    if mode == "brute" and k > _MAX_BRUTE_MENU_LEVEL:
        raise CapacityError(
            f"brute force over all {_menu_size(k)} level-{k} templates is not "
            f"tractable; search one template at a time, or level <= "
            f"{_MAX_BRUTE_MENU_LEVEL}")

    def results() -> Iterator[Tuple[str, PermUnitary]]:
        for label in template_labels(k):
            kind, template = parse_template(k, label)
            members = (_family(k, kind) if mode == "constructive"
                       else enumerate_extendible(k, template, mode))
            for pu in members:
                yield label, pu

    return results()


def _extendible(k: int, template: Element) -> Iterator[Perm]:
    """The level-k permutations that satisfy ext1 and ext2 (up to the
    final check of enumerate_extendible); at level 0, unfiltered, the only
    permutation there is.

    With y over the length-(k-1) words, u S_i = sum_y S_rho(iy) S_y*, so
    ext1 holds iff Utilde S_rho(2y) = S_rho(1y) for every y: rho on the
    words 2y forces rho on the words 1y.  Right-multiplied by S_x, ext2
    reads Utilde S_rho(1x) = u S_2 (Utilde S_x), and since the S_x S_x* sum
    to 1, ext2 holds iff that holds for every x.  Expand Utilde S_x until
    each alpha has k-1 letters or more; as u S_w = S_rho(w) for |w| = k,
    u S_2 S_alpha = S_rho(2 alpha[:k-1]) S_alpha[k-1:], a substitution.  So
    x's equation reads rho only on 2x and on the words 2 alpha[:k-1].  The
    search places rho(2y) and rho(1y) for one y at a time, in lex order of
    y, and decides each equation by eq as soon as the last word it reads is
    placed, memoized on rho of the words 2z it reads.
    """
    if k == 0:
        yield (0,)
        return
    half = 1 << (k - 1)  # 1y has lex index j, 2y has half + j
    words = all_words(k)
    images = [template * s(w) for w in words]  # Utilde S_b, left-hand sides
    forced = _forced_images(k, images)
    # checks[i]: the equations decided once y_i is placed, each as x's index
    # j, the indices of the words 2z it reads, and the terms of Utilde S_x
    # as (index of 2 alpha[:k-1], alpha[k-1:], charge, beta, coefficient)
    checks: List[list] = [[] for _ in range(half)]
    for j, x in enumerate(all_words(k - 1)):
        expanded = _expand(template * s(x), lambda a: len(a) < k - 1, side=0)
        terms = [(half + lex_index(a[:k - 1]), a[k - 1:], m, b, c)
                 for (a, m, b), c in expanded.items()]
        reads = sorted({half + j}.union(z for z, *_rest in terms))
        checks[reads[-1] - half].append((j, reads, terms, {}))
    perm = [0] * (2 * half)
    used = [False] * (2 * half)

    def holds(j: int, reads: List[int], terms: list, memo: dict) -> bool:
        key = tuple([perm[i] for i in reads])  # rho(1x) follows from rho(2x)
        verdict = memo.get(key)
        if verdict is None:
            rhs = Element({new_monomial((words[perm[z]] + tail, m, b)): c
                           for z, tail, m, b, c in terms})
            verdict = memo[key] = eq(images[perm[j]], rhs)
        return verdict

    def place(i: int) -> Iterator[Perm]:
        if i == half:
            yield tuple(perm)
            return
        for a, b in forced.items():
            if used[a] or used[b] or a == b:
                continue
            perm[half + i], perm[i] = a, b
            if all(holds(*check) for check in checks[i]):
                used[a] = used[b] = True
                yield from place(i + 1)
                used[a] = used[b] = False

    yield from place(0)


def _forced_images(k: int, images: List[Element]) -> Dict[int, int]:
    """{a: b} over lex indices of length-k words with Utilde S_a = S_b, from
    images[a] = Utilde S_a.  A term of the refined form proposes b; eq
    decides."""
    forced = {}
    for a, image in enumerate(images):
        f = _refine(image)
        m = next(iter(f), None)
        if m is None or len(m.alpha) - len(m.beta) != k:
            continue
        b = m.alpha[:k]
        if eq(image, s(b)):
            forced[a] = lex_index(b)
    return forced


def _template_kind(k: int, template: Element):
    """Kind of the menu entry equal to the template, or None.

    Total charge is an invariant of the operator, and it picks the
    candidates: +-2^(k-1) for U+-, 0 for the 2(k-1) mixed templates, 1 for
    AD and -1 for AD* (whose p _inner_perm reads off the template).  eq
    confirms the candidate; no two menu entries are equal, so at most one
    matches.  An element outside W is equal to no menu entry."""
    if k < 2:
        raise DomainError(f"template menu needs level k >= 2, got {k}")
    try:
        charge = total_charge(template)
    except DomainError:
        return None
    if abs(charge) == 1 << (k - 1):
        kinds = [("pure", 1 if charge > 0 else -1)]
    elif charge == 0:
        kinds = [("mixed", h, variant)
                 for h in range(k - 1) for variant in (1, 2)]
    elif abs(charge) == 1:
        pperm = _inner_perm(k, template, charge)
        kinds = [] if pperm is None else [("inner", pperm, charge < 0)]
    else:
        kinds = []
    return next((kind for kind in kinds
                 if eq(template, _kind_template(k, kind))), None)


def _inner_perm(k: int, template: Element, charge: int) -> Optional[Perm]:
    """The level-(k-1) permutation p with template = p U^charge p* for
    charge +-1, read off the template's reduced form at depth k-1, or None
    when that reading fails.

    With the odometer step w -> w+1 on the length-(k-1) words, U S_w =
    S_(w+1) except at w = 1...1, where U S_w = S_(2...2) U.  So p U p* is
    the sum of S_p(w+1) U^q S_p(w)*: its one charged term has alpha
    p(2...2), and the term with beta p(w) has alpha p(w+1).  For U* the
    walk starts at p(1...1) and steps w -> w-1.  The result is a candidate
    for eq to confirm."""
    try:
        f = normalize(to_element(reduce(from_element(template))), k - 1)
    except DomainError:  # deeper than k-1 letters even when reduced
        return None
    by_beta = {b: a for a, _m, b in f.terms}
    charged = [a for a, m, _b in f.terms if m]
    if len(charged) != 1:
        return None
    size = 1 << (k - 1)
    t = 0 if charge > 0 else size - 1  # the offset of 2...2, or of 1...1
    image = charged[0]
    p = [0] * size
    for _ in range(size):
        if image not in by_beta:
            return None
        p[lex_index(decode(k - 1, t))] = lex_index(image)
        t = (t + charge) % size
        image = by_beta[image]
    return tuple(p) if sorted(p) == list(range(size)) else None


def constructive_family(k: int, template: Element) -> List[PermUnitary]:
    """The closed-form family of the template, found by _template_kind."""
    kind = _template_kind(k, template)
    if kind is None:
        raise DomainError("no constructive family matches this template")
    return _family(k, kind)


def _family_size(k: int, kind: tuple) -> int:
    """Closed-form member count: (2^(k-1))! for U±, ((2^(k-2))!)^2 for a
    mixed template, 1 for an inner one."""
    if kind[0] == "pure":
        return factorial(1 << (k - 1))
    if kind[0] == "mixed":
        return factorial(1 << (k - 2)) ** 2
    return 1


def _family(k: int, kind: tuple) -> List[PermUnitary]:
    size = _family_size(k, kind)
    if size > _MAX_FAMILY:
        raise CapacityError(f"the family has {size} members; "
                            f"at most {_MAX_FAMILY} can be listed")
    if kind[0] == "pure":
        return list(enumerate_u_p(k, kind[1]))
    if kind[0] == "mixed":
        return list(enumerate_u_sigma(k, kind[1], kind[2]))
    _tag, pperm, with_flip = kind
    return [make_inner_phi(PermUnitary(k - 1, pperm), with_flip).u]


# applying an extended endomorphism ---------------------------------------------

def lambda_apply(endo: ExtendedEndo, e: Element) -> Element:
    """Image of an element under the extended endomorphism: S_i -> u S_i,
    U -> the verified template, extended multiplicatively."""
    if not endo.verified:
        raise DomainError("endomorphism is not verified; refusing to apply")
    images = dict(zip((1, 2), endo.u.s_images()))
    ut, ut_star = endo.u_tilde, endo.u_tilde.adjoint()
    out = Element()
    for m, c in e.terms.items():
        acc = one()
        for letter in m.alpha:
            acc = acc * images[letter]
        kf = ut if m.k >= 0 else ut_star
        for _ in range(abs(m.k)):
            acc = acc * kf
        for letter in reversed(m.beta):
            acc = acc * images[letter].adjoint()
        out = out + acc.scale(c)
    return out


# automorphism probe -------------------------------------------------------------

class ProbeResult(NamedTuple):
    stabilized_at: Optional[int]
    witness: Optional[Element]

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None


# step k multiplies tower elements of 2^(level + k - 1) terms: level 2 at
# depth 9 takes 0.7 s on a 2-core VM, and each step costs 4x the one before
_MAX_PROBE_LEVEL = 10


def automorphism_probe(pu: PermUnitary, depth: int = 6) -> ProbeResult:
    """Look for exact stabilization of w_k = u_k* u* u_k with
    u_k = u phi(u) ... phi^{k-1}(u).

    Stabilization certifies an automorphism with inverse given by the
    witness; no stabilization within the depth budget is reported as
    inconclusive, never as a negative.
    """
    if depth < 2:
        raise DomainError("probe needs depth >= 2")
    u_el = pu.element
    u_star = u_el.adjoint()
    u_k = prev_w = None
    phi_u = u_el  # phi^(k-1)(u)
    for k in range(1, depth + 1):
        if pu.level + k - 1 > _MAX_PROBE_LEVEL:
            raise CapacityError(f"probe step {k} needs level-{pu.level + k - 1} "
                                f"tower elements; at most {_MAX_PROBE_LEVEL}")
        if k == 1:
            u_k = u_el
        else:
            phi_u = phi(phi_u)
            u_k = u_k * phi_u
        w_k = u_k.adjoint() * u_star * u_k
        if prev_w is not None and eq(prev_w, w_k):
            return ProbeResult(k - 1, prev_w)
        prev_w = w_k
    return ProbeResult(None, None)


# reproduction suites ------------------------------------------------------------

def run_verify_table(path):
    """Check every fixture row: cycles match the element, element is the
    stated permutative unitary, and both extension equations hold."""
    try:
        f = open(path)
    except OSError as exc:
        raise DomainError(f"cannot open table {path}: {exc.strerror}") from None
    rows = []
    with f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            rows.append(line.split("\t"))
    failures = []
    for i, row in enumerate(rows, 1):
        try:
            cycles, elem_text, tilde_text = row
            pu = perm_unitary_from_element(parse_element(elem_text))
            if perm_to_cycles(pu.perm) != cycles:
                raise DomainError(
                    f"cycle column {cycles} does not match element "
                    f"({perm_to_cycles(pu.perm)})"
                )
            e1, e2 = check_extension_parts(pu, parse_element(tilde_text))
            if not (e1 and e2):
                raise DomainError(f"extension check failed: ext1={e1} ext2={e2}")
        except (ValueError, DomainError) as exc:
            failures.append((i, str(exc)))
    return len(rows), failures


def run_verify_counts(level, sample=1000):
    """Constructive family sizes against the closed-form counts for the pure
    and mixed templates, with extension checks on every member (or a
    deterministic sample when a family is larger than `sample`)."""
    import random

    report = []
    checks = 0
    for label in template_labels(level):
        kind, template = parse_template(level, label)
        if kind[0] == "inner":
            break
        expected = _family_size(level, kind)
        members = _family(level, kind)
        count_ok = len(members) == len({pu.perm for pu in members}) == expected
        idx = range(len(members))
        if sample and len(members) > sample:
            idx = sorted(random.Random(0).sample(idx, sample))
        ext_ok = True
        for i in idx:
            checks += 1
            if not check_extension(members[i], template):
                ext_ok = False
                break
        report.append((label, len(members), expected, count_ok and ext_ok))
    return report, checks

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
menu, and enumerate_extendible classifies, for one template, the
extendible permutations of a level by a search that both equations
prune, word by word, on the template's leaf map (_image), and that the
extension checker verifies.  A permutation unitary is its index tuple:
products, adjoints, phi and the rewriting one level up are index maps
(PermUnitary), so the families, the menu's templates and the automorphism
probe's tower use no Element arithmetic.  Only this module knows the
template menu: the CLI reaches it through template_element,
template_members and construct.
"""

from __future__ import annotations

import itertools
import re
from math import factorial
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .element import (Element, _unitary_terms, eq, in_w, normalize, one,
                      parse_element, s, total_charge, u)
from .errors import CapacityError, DomainError, ParseError
from .monomial import Monomial
from .words import Word, all_words, decode, lex_index, offset

Perm = Tuple[int, ...]  # perm[i] = lex index of the image of the i-th word

# the deepest level whose 2^level words get listed, as a permutation, a
# template or a probe's tower: a level-2 probe to depth 17 reaches it in
# about 0.4 s on a 2-core VM.  A deeper level is refused before anything of
# its size is built.
_MAX_LISTED_LEVEL = 18


def _check_listable(level: int) -> None:
    if level > _MAX_LISTED_LEVEL:
        raise CapacityError(f"level {level} has 2^{level} words; at most "
                            f"level {_MAX_LISTED_LEVEL} can be listed")


def identity_perm(size: int) -> Perm:
    return tuple(range(size))


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
    when every index is a single digit.  size is 2^level for the level
    of the words permuted."""
    _check_listable(size.bit_length() - 1)
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
    """u = sum_w S_rho(w) S_w* over the length-level words, as rho's tuple.

    With j the lex index of w, the word i w has index (i-1) 2^level + j and
    the word w i has index 2j + (i-1), so products, adjoints, phi and the
    rewriting one level up are index maps.  Two permutation unitaries are
    the same operator iff their tuples agree at a common level."""
    level: int
    perm: Perm

    def __matmul__(self, other: PermUnitary) -> PermUnitary:
        """The product: rho_self after rho_other, at the higher level."""
        a, b = self, other
        while a.level < b.level:
            a = a.promote()
        while b.level < a.level:
            b = b.promote()
        return PermUnitary(a.level, tuple([a.perm[i] for i in b.perm]))

    def inverse(self) -> PermUnitary:
        """The adjoint u*, which is rho^-1."""
        inv = [0] * len(self.perm)
        for i, image in enumerate(self.perm):
            inv[image] = i
        return PermUnitary(self.level, tuple(inv))

    def phi(self) -> PermUnitary:
        """phi(u) = S_1 u S_1* + S_2 u S_2*, one level up: i w -> i rho(w)."""
        half = len(self.perm)
        return PermUnitary(self.level + 1,
                           self.perm + tuple([x + half for x in self.perm]))

    def promote(self) -> PermUnitary:
        """The same operator one level up: w i -> rho(w) i."""
        return PermUnitary(self.level + 1,
                           tuple([x + x + i for x in self.perm for i in (0, 1)]))

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
    terms = normalize(e, level).terms.items()  # each beta has level letters
    perm = [-1] * (1 << level)
    for (a, _k, b), _c in terms:
        perm[lex_index(b)] = lex_index(a)
    if len(terms) != len(perm) or sorted(perm) != list(range(len(perm))) \
            or any(c != 1 or k or len(a) != level for (a, k, _b), c in terms):
        raise DomainError("not a permutation unitary at this level")
    return PermUnitary(level, tuple(perm))


# extension checking ----------------------------------------------------------

# the extension check reads a candidate image of U as a tree pair
_NOT_IN_W = "candidate image of U is not a coefficient-1 tree-pair unitary of W"


def check_extension_parts(pu: PermUnitary, u_tilde: Element) -> Tuple[bool, bool]:
    """(ext1, ext2) truth values for the candidate image of U."""
    if not in_w(u_tilde):
        raise DomainError(_NOT_IN_W)
    return _extension_parts(pu, u_tilde)


def _extension_parts(pu: PermUnitary, u_tilde: Element) -> Tuple[bool, bool]:
    """(ext1, ext2) for a candidate the caller has checked is in W."""
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

def mixed_template(k: int, h: int, variant: int) -> Element:
    """phi^h(P_i) U^n + phi^h(P_j) U^-n, n = 2^(k-1), (i, j) = (1, 2) for
    variant 1: the P_w U^(+-n) = S_w U^(+-n >> |w|) S_w* over w = a i, a j."""
    _check_listable(k)
    if not 0 <= h <= k - 2:
        raise DomainError(f"h must lie in 0..{k - 2}")
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    m = 1 << (k - 2 - h)  # n >> (h + 1)
    i, j = (1, 2) if variant == 1 else (2, 1)
    return Element({Monomial(a + (c,), q, a + (c,)): 1
                    for c, q in ((i, m), (j, -m)) for a in all_words(h)})


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


def label_kind(k: int, label: str) -> Optional[tuple]:
    """The kind of the template with this label at level k >= 2, or None
    when the text is not a template label.  No element is built."""
    m = _TEMPLATE_LABEL.match(label)
    if m is None:
        return None
    if k < 2:
        raise DomainError(f"template menu needs level k >= 2, got {k}")
    _check_listable(k)
    pure, variant, h, star, cycles = m.groups()
    if pure:
        return ("pure", 1 if pure == "+" else -1)
    if variant:
        return ("mixed", int(h), int(variant))
    return ("inner", parse_cycles(1 << (k - 1), cycles), bool(star))


def parse_template(k: int, label: str) -> Optional[Tuple[tuple, Element]]:
    """(kind, element) of the template with this label at level k >= 2, or
    None when the text is not a template label."""
    kind = label_kind(k, label)
    return None if kind is None else (kind, _kind_template(k, kind))


def template_element(k: int, text: str) -> Element:
    """The template a --template argument names at level k: a label's
    element, else the text parsed as an element expression."""
    kind = label_kind(k, text)
    return parse_element(text) if kind is None else _kind_template(k, kind)


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
    _check_menu_level(k)
    for pperm in itertools.permutations(range(1 << (k - 1))):
        cycles = perm_to_cycles(pperm)
        yield f"AD:{cycles}"
        yield f"AD*:{cycles}"


def _check_menu_level(k: int) -> None:
    if k > _MAX_MENU_LEVEL:
        raise CapacityError(
            f"the level-{k} menu has {_menu_size(k)} templates; "
            f"the full menu needs level <= {_MAX_MENU_LEVEL}")


def _factorial_count(e: int, power: int = 1) -> Optional[int]:
    """((2^e)!)^power, or None past e = 5, where a count is named by its
    closed form instead: (2^5)! has 36 digits, (2^11)! over 5,000."""
    return factorial(1 << e) ** power if e <= 5 else None


def _menu_size(k: int) -> str:
    """Entries of template_labels(k): U+ and U-, 2(k-1) mixed, and
    2 (2^{k-1})! inner."""
    inner = _factorial_count(k - 1)
    return f"2*(2^{k - 1})! + {2 * k}" if inner is None else str(2 * k + 2 * inner)


def u_templates_labeled(k: int) -> List[Tuple[str, Element]]:
    """The standard menu of candidate images of U at level k as (label,
    element) pairs: U^{±2^{k-1}}, the mixed projection pairs for each h,
    and the inner images p U p* and p U* p* over the level-(k-1)
    permutation unitaries.  Past level _MAX_MENU_LEVEL it is refused before
    any template is built."""
    _check_menu_level(k)
    return [(label, parse_template(k, label)[1]) for label in template_labels(k)]


# constructive families --------------------------------------------------------

def make_u_p(p: Sequence[int], sign: int) -> PermUnitary:
    """u_p^+ (sign +1) or u_p^- (sign -1) at level k = |mu| + 1: the
    permutation mu -> p(mu) braided with a final letter, extendible with
    image of U equal to U^{±2^{k-1}}: u_p^+ maps 1 p(mu) to mu 1 and
    2 p(mu) to mu 2, and u_p^- swaps those endings."""
    p = tuple(p)
    size = len(p)
    if size & (size - 1) or size == 0:
        raise DomainError("p must permute the words of some fixed length")
    if sorted(p) != list(range(size)):
        raise DomainError("p is not a permutation")
    end1, end2 = (0, 1) if sign > 0 else (1, 0)
    perm = [0] * (2 * size)
    for mu, pmu in enumerate(p):
        perm[pmu] = 2 * mu + end1
        perm[size + pmu] = 2 * mu + end2
    return PermUnitary(size.bit_length(), tuple(perm))


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
    size, tail = 1 << (k - 2), 1 << (k - 2 - h)
    sides = [identity_perm(size) if side is None else tuple(side)
             for side in (side1, side2)]
    if any(sorted(pi) != list(range(size)) for pi in sides):
        raise DomainError(f"side is not a permutation of the length-{k - 2} words")

    def at(y: int, c: int) -> int:  # word y with the letter c at position h+1
        return (y - y % tail) * 2 + (c - 1) * tail + y % tail

    # side 1 rides the U^{+2^{k-1}} projection, side 2 the U^{-2^{k-1}} one;
    # the variant decides which letter at position h+1 each side carries.
    # On the + side the 2-prefixed block must land on words ending in 2
    # (so the shift completes them without a leftover U), on the - side
    # on words ending in 1; the 1-prefixed blocks take the flipped endings.
    # The lex index of i w is (i-1) 2^(k-1) + j and of w i is 2j + i-1.
    c1, c2 = (1, 2) if variant == 1 else (2, 1)
    half = 2 * size
    perm = [0] * (2 * half)
    for x, (y1, y2) in enumerate(zip(*sides)):
        src1, src2, x1, x2 = at(y1, c1), at(y2, c2), at(x, c1), at(x, c2)
        perm[half + src1], perm[src1] = 2 * x1 + 1, 2 * x1
        perm[half + src2], perm[src2] = 2 * x2, 2 * x2 + 1
    return PermUnitary(k, tuple(perm))


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


_FLIP_FLOP = PermUnitary(1, (1, 0))  # f = S_1 S_2* + S_2 S_1*


def make_inner_phi(p: PermUnitary, with_flip: bool) -> ExtendedEndo:
    """The inner-perturbation endomorphism x -> p x p* (composed with the
    flip-flop when asked): u = p phi(p*) (times f), image of U = pUp*
    (resp. pU*p*)."""
    return extend(_inner_u(p, with_flip), _inner_image(p, with_flip))


def _inner_u(p: PermUnitary, with_flip: bool) -> PermUnitary:
    """u = p phi(p*), times the flip-flop f when asked, as an index product."""
    pu = p.promote() @ p.inverse().phi()
    return pu @ _FLIP_FLOP if with_flip else pu


def _inner_image(p: PermUnitary, with_flip: bool) -> Element:
    """p U p*, or p U* p* with the flip-flop, written term by term.

    With n = p.level and the odometer step t -> t +- 1 on the offsets of
    the length-n words, U^(+-1) S_w = S_w' U^q for q, t(w') = divmod(t(w)
    +- 1, 2^n), so the image is the sum of S_p(w') U^q S_p(w)* over the
    words w: the writer twin of _inner_perm's reader."""
    n = p.level
    size = 1 << n
    words = all_words(n)
    lex = [0] * size  # lex[t]: the lex index of the word with offset t
    for i, w in enumerate(words):
        lex[offset(w)] = i
    images = [words[p.perm[i]] for i in lex]  # images[t] = p(w) for t(w) = t
    step = -1 if with_flip else 1
    terms = {}
    for t in range(size):
        q, t2 = divmod(t + step, size)
        terms[Monomial(images[t2], q, images[t])] = 1
    return Element(terms)


def construct(k: int, label: str, perm: Optional[str] = None,
              sigma1: Optional[str] = None,
              sigma2: Optional[str] = None) -> ExtendedEndo:
    """The family member of the labelled template at level k, checked
    against it.  perm (U+, U-) and sigma1, sigma2 (M1:h, M2:h) are cycles,
    the identity when absent; an option of another kind is a ParseError."""
    labelled = parse_template(k, label)
    if labelled is None:
        raise DomainError(f"construct needs a template name, got {label!r}")
    kind, template = labelled
    own = {"pure": ("perm",), "mixed": ("sigma1", "sigma2"), "inner": ()}[kind[0]]
    for name, value in (("perm", perm), ("sigma1", sigma1), ("sigma2", sigma2)):
        if value is not None and name not in own:
            raise ParseError(f"--{name} does not apply to template {label!r}")
    if kind[0] == "pure":
        pu = make_u_p(parse_cycles(1 << (k - 1), perm or ""), kind[1])
    elif kind[0] == "mixed":
        sides = [parse_cycles(1 << (k - 2), text or "") for text in (sigma1, sigma2)]
        pu = make_u_sigma(k, kind[1], kind[2], *sides)
    else:
        pu = _inner_u(PermUnitary(k - 1, kind[1]), kind[2])
    return extend(pu, template)


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
    every collision and every partial rho that already breaks ext2, both
    read off the template's leaf map (_extendible).  Both extension
    equations are then checked on each survivor, as check_extension does,
    with the template checked to be in W once.  constructive mode replays
    the closed-form family attached to the template and raises a domain
    error for templates with no such family.  jobs changes nothing, since
    the search is serial; it stays only because the benchmark's sweep
    passes jobs=1.
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
    if not in_w(template):
        raise DomainError(_NOT_IN_W)
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


def template_members(k: int, text: str, mode: str = "brute") -> List[PermUnitary]:
    """The u that enumerate_extendible lists for the template a --template
    argument names at level k.  In constructive mode a label reads its
    family off its kind, which _family sizes before any element is built."""
    kind = label_kind(k, text)
    if kind is not None and mode == "constructive":
        return _family(k, kind)
    return enumerate_extendible(k, template_element(k, text), mode=mode)


def _image(template: Element) -> Callable[[Word], Optional[Tuple[Word, int]]]:
    """w -> (v, q) with Utilde S_w = S_v U^q, for Utilde the template (in W).

    Each leaf S_a U^m S_b* of the reduced leaf map is keyed by (|b|, t(b)),
    as Element.__mul__ keys words; for w = b c, v = a c' and q, t(c') =
    divmod(t(c) + m, 2^|c|).  None when w is a proper prefix of some b: the
    reduced map has merged every subtree that is one monomial."""
    from .wgroup import _reduce  # the search and _inner_perm alone use it

    terms = _reduce(sorted(_unitary_terms(template, "the image of U")))
    leaves = {(len(b), offset(b)): (a, m) for a, m, b in terms}
    lengths = sorted({n for n, _t in leaves})

    def image(w: Word) -> Optional[Tuple[Word, int]]:
        t = offset(w)
        for n in lengths:
            leaf = n <= len(w) and leaves.get((n, t & ((1 << n) - 1)))
            if leaf:
                q, t2 = divmod((t >> n) + leaf[1], 1 << (len(w) - n))
                return leaf[0] + decode(len(w) - n, t2), q
        return None

    return image


def _extendible(k: int, template: Element) -> Iterator[Perm]:
    """The level-k permutations that satisfy ext1 and ext2 (up to the
    final check of enumerate_extendible), both read off _image; at level 0,
    unfiltered, the only permutation there is.

    With y over the length-(k-1) words, u S_i = sum_y S_rho(iy) S_y*, so
    ext1 holds iff Utilde S_rho(2y) = S_rho(1y) for every y: rho on 2y
    forces rho on 1y.  Times S_x, ext2 reads Utilde S_rho(1x) = u S_2
    (Utilde S_x) for each x, and times S_c, for each c of a partition grown
    until Utilde S_xc = S_v U^q with |v| >= k-1: Utilde S_rho(1x)c =
    S_rho(2 v[:k-1]) v[k-1:] U^q, as u S_w = S_rho(w) for |w| = k.  Two such
    monomials are equal iff their words and charges are.  The search places
    rho(2y) and rho(1y) for one y at a time, in lex order of y, and decides
    x's equation once rho is placed on 2x and every 2 v[:k-1], memoized on
    rho there.
    """
    if k == 0:
        yield (0,)
        return
    half = 1 << (k - 1)  # 1y has lex index j, 2y has half + j
    words = all_words(k)
    image = _image(template)
    forced = {a: lex_index(hit[0]) for a, hit in enumerate(map(image, words))
              if hit and hit[1] == 0 and len(hit[0]) == k}  # Utilde S_a = S_b
    # checks[i]: the equations decided once y_i is placed, as x's index j,
    # the indices of the 2z read, and pieces (c, index of 2 v[:k-1], v[k-1:], q)
    checks: List[list] = [[] for _ in range(half)]
    for j, x in enumerate(all_words(k - 1)):
        pieces, tails = [], [()]
        while tails:
            c = tails.pop()
            hit = image(x + c)
            if hit is None or len(hit[0]) < k - 1:
                tails += [c + (2,), c + (1,)]
            else:
                v, q = hit
                pieces.append((c, half + lex_index(v[:k - 1]), v[k - 1:], q))
        reads = sorted({half + j}.union(z for _c, z, _v, _q in pieces))
        checks[reads[-1] - half].append((j, reads, pieces, {}))
    perm = [0] * (2 * half)
    used = [False] * (2 * half)

    def holds(j: int, reads: List[int], pieces: list, memo: dict) -> bool:
        key = tuple([perm[i] for i in reads])  # rho(1x) follows from rho(2x)
        verdict = memo.get(key)
        if verdict is None:
            lhs = words[perm[j]]
            verdict = memo[key] = all(image(lhs + c) == (words[perm[z]] + v, q)
                                      for c, z, v, q in pieces)
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
    charge +-1, read off _image on the length-(k-1) words, or None.

    With the odometer step w -> w+1 on the length-(k-1) words, p U p*
    S_p(w) = S_p(w+1) U^q, with q = 1 only at the image S_p(2...2) U of
    S_p(1...1).  For U* the walk starts at p(1...1) and steps w -> w-1.
    The result is a candidate for eq to confirm."""
    image = _image(template)
    hits = {w: image(w) for w in all_words(k - 1)}
    if any(hit is None or len(hit[0]) != k - 1 for hit in hits.values()):
        return None
    charged = [v for v, q in hits.values() if q]
    if len(charged) != 1:
        return None
    size, word = 1 << (k - 1), charged[0]
    t = 0 if charge > 0 else size - 1  # the offset of 2...2, or of 1...1
    p = [0] * size
    for _ in range(size):
        p[lex_index(decode(k - 1, t))] = lex_index(word)
        t = (t + charge) % size
        word = hits[word][0]
    return tuple(p) if sorted(p) == list(range(size)) else None


def constructive_family(k: int, template: Element) -> List[PermUnitary]:
    """The closed-form family of the template, found by _template_kind."""
    kind = _template_kind(k, template)
    if kind is None:
        raise DomainError("no constructive family matches this template")
    return _family(k, kind)


def _family_size(k: int, kind: tuple) -> Tuple[Optional[int], str]:
    """Closed-form member count and its formula: (2^(k-1))! for U±,
    ((2^(k-2))!)^2 for a mixed template, 1 for an inner one.  The count is
    None where _factorial_count names it by the formula alone."""
    if kind[0] == "pure":
        return _factorial_count(k - 1), f"(2^{k - 1})!"
    if kind[0] == "mixed":
        return _factorial_count(k - 2, 2), f"((2^{k - 2})!)^2"
    return 1, "1"


def _family(k: int, kind: tuple) -> List[PermUnitary]:
    size, formula = _family_size(k, kind)
    if size is None or size > _MAX_FAMILY:
        raise CapacityError(f"the family has {formula if size is None else size}"
                            f" members; at most {_MAX_FAMILY} can be listed")
    if kind[0] == "pure":
        return list(enumerate_u_p(k, kind[1]))
    if kind[0] == "mixed":
        return list(enumerate_u_sigma(k, kind[1], kind[2]))
    return [_inner_u(PermUnitary(k - 1, kind[1]), kind[2])]


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


def automorphism_probe(pu: PermUnitary, depth: int = 6) -> ProbeResult:
    """Look for exact stabilization of w_k = u_k* u* u_k with
    u_k = u phi(u) ... phi^{k-1}(u).

    Stabilization certifies an automorphism with inverse given by the
    witness; no stabilization within the depth budget is reported as
    inconclusive, never as a negative.  The tower runs on index tuples:
    step k costs a few passes over the 2^(level + k - 1) words, twice the
    step before, and a step past level _MAX_LISTED_LEVEL is refused.  w_k
    sits one level above w_(k-1), so the two are compared promoted.
    """
    if depth < 2:
        raise DomainError("probe needs depth >= 2")
    u_star = pu.inverse()
    u_k = phi_u = pu  # u_k and phi^(k-1)(u), both at level + k - 1
    prev_w = None
    for k in range(1, depth + 1):
        if pu.level + k - 1 > _MAX_LISTED_LEVEL:
            raise CapacityError(f"probe step {k} needs level-{pu.level + k - 1} "
                                f"tower elements; at most {_MAX_LISTED_LEVEL}")
        if k > 1:
            phi_u = phi_u.phi()
            u_k = u_k @ phi_u
        w_k = u_k.inverse() @ u_star @ u_k
        if prev_w is not None and prev_w.promote() == w_k:
            return ProbeResult(k - 1, prev_w.element)
        prev_w = w_k
    return ProbeResult(None, None)


# reproduction suites ------------------------------------------------------------

def run_verify_table(path):
    """Check every fixture row: cycles match the element, element is the
    stated permutative unitary, and both extension equations hold.  A
    table with no rows is refused (DomainError), since it checks nothing."""
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
    if not rows:
        raise DomainError(f"table {path} has no rows")
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

    if sample < 0:
        raise ParseError(f"--sample must be 0 or more, got {sample}")

    report = []
    checks = 0
    for label in template_labels(level):
        kind, template = parse_template(level, label)
        if kind[0] == "inner":
            break
        expected = _family_size(level, kind)[0]
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

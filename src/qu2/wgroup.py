"""Tree-pair diagrams with integer leaf charges.

A diagram (T+, T-, tau, v) encodes the unitary sum over leaves p of
S_{leaf_p(T+)} U^{v(p)} S_{leaf_{tau(p)}(T-)}*.  These unitaries form a
group under multiplication; this module converts between diagrams and
Elements, reduces diagrams to minimal form, and draws them.

Trees are nested pairs: a leaf is 0, an interior node is (left, right).
The left child extends a leaf word by the letter 1, the right child by 2,
so left-to-right leaf order is lex order.  tau is stored 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .element import Element, mul, normalize
from .errors import DomainError, ParseError
from .monomial import Monomial
from .words import Word

Tree = object  # 0 for a leaf, (Tree, Tree) for an interior node

LEAF = 0


def leaves(tree: Tree) -> List[Word]:
    """Leaf words in left-to-right (lex) order."""
    out: List[Word] = []

    def walk(node, path):
        if node == LEAF:
            out.append(path)
        else:
            left, right = node
            walk(left, path + (1,))
            walk(right, path + (2,))

    walk(tree, ())
    return out


def tree_from_words(words) -> Tree:
    """Rebuild the unique binary tree whose leaf set is the given partition."""
    words = sorted(words)
    if words == [()]:
        return LEAF
    ones = [w[1:] for w in words if w and w[0] == 1]
    twos = [w[1:] for w in words if w and w[0] == 2]
    if not ones or not twos or len(ones) + len(twos) != len(words):
        raise DomainError("leaf words do not form a partition")
    return (tree_from_words(ones), tree_from_words(twos))


def tree_to_obj(tree: Tree):
    if tree == LEAF:
        return 0
    return [tree_to_obj(tree[0]), tree_to_obj(tree[1])]


def tree_from_obj(obj) -> Tree:
    if obj == 0:
        return LEAF
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return (tree_from_obj(obj[0]), tree_from_obj(obj[1]))
    raise ParseError(f"bad tree node {obj!r}")


@dataclass(frozen=True)
class Diagram:
    t_plus: Tree
    t_minus: Tree
    tau: Tuple[int, ...]  # leaf p of t_plus pairs with leaf tau[p] of t_minus
    v: Tuple[int, ...]    # charge on leaf p of t_plus

    def __post_init__(self):
        n = len(leaves(self.t_plus))
        if len(leaves(self.t_minus)) != n:
            raise DomainError("leaf counts differ")
        if sorted(self.tau) != list(range(n)):
            raise DomainError("tau is not a permutation of the leaves")
        if len(self.v) != n:
            raise DomainError("charge vector length does not match leaf count")

    def leaf_count(self) -> int:
        return len(self.v)


def identity_diagram() -> Diagram:
    return Diagram(LEAF, LEAF, (0,), (0,))


def to_element(d: Diagram) -> Element:
    plus = leaves(d.t_plus)
    minus = leaves(d.t_minus)
    return Element({Monomial(plus[p], d.v[p], minus[d.tau[p]]): 1
                    for p in range(len(plus))})


def _terms_to_diagram(terms) -> Optional[Diagram]:
    if any(c != 1 for c in terms.values()):
        return None
    alphas = sorted(m.alpha for m in terms)
    betas = sorted(m.beta for m in terms)
    try:
        t_plus = tree_from_words(alphas)
        t_minus = tree_from_words(betas)
    except DomainError:
        return None
    if leaves(t_plus) != alphas or leaves(t_minus) != betas:
        return None  # repeated words
    a_index = {w: p for p, w in enumerate(alphas)}
    b_index = {w: q for q, w in enumerate(betas)}
    tau = [0] * len(alphas)
    v = [0] * len(alphas)
    for (a, k, b) in terms:
        tau[a_index[a]] = b_index[b]
        v[a_index[a]] = k
    return Diagram(t_plus, t_minus, tuple(tau), tuple(v))


def from_element(e: Element) -> Diagram:
    """Read a diagram off a unitary sum of monomials.

    The stored term set is used as-is when it already has coefficient 1 and
    partition word families on both sides; otherwise the canonical form is
    tried.  Anything else is not a W element.
    """
    d = _terms_to_diagram(e.terms)
    if d is None:
        d = _terms_to_diagram(normalize(e).terms)
    if d is None:
        raise DomainError("element is not a charge-decorated tree-pair unitary")
    return d


# reduction ------------------------------------------------------------------

def _find_moves(terms: Dict[Word, Tuple[int, Word]]) -> List[Word]:
    """Alpha-side caret roots w where the sibling pair merges into one term.

    terms maps alpha -> (charge, beta).  The two patterns are the inverses
    of the charge-parity splitting:
      even: (w1, j, x1), (w2, j, x2)   -> (w, 2j, x)
      odd:  (w1, j, x2), (w2, j+1, x1) -> (w, 2j+1, x)
    """
    moves = []
    for a in terms:
        if not a or a[-1] != 1:
            continue
        w = a[:-1]
        sib = w + (2,)
        if sib not in terms:
            continue
        j1, b1 = terms[a]
        j2, b2 = terms[sib]
        if not b1 or not b2 or b1[:-1] != b2[:-1]:
            continue
        if j1 == j2 and b1[-1] == 1 and b2[-1] == 2:
            moves.append(w)
        elif j2 == j1 + 1 and b1[-1] == 2 and b2[-1] == 1:
            moves.append(w)
    return moves


def _apply_move(terms: Dict[Word, Tuple[int, Word]], w: Word) -> None:
    j1, b1 = terms.pop(w + (1,))
    j2, b2 = terms.pop(w + (2,))
    x = b1[:-1]
    terms[w] = (2 * j1, x) if j1 == j2 else (2 * j1 + 1, x)


def _reduce_terms(terms, pick) -> Dict[Word, Tuple[int, Word]]:
    terms = dict(terms)
    while True:
        moves = _find_moves(terms)
        if not moves:
            return terms
        _apply_move(terms, pick(moves))


def reduce(d: Diagram, pick=None) -> Diagram:
    """Merge sibling leaf pairs until no reduction move applies.

    Moves are applied deepest-first (ties broken lexicographically) by
    default; pass pick to choose among available moves differently, e.g.
    for move-order independence testing.
    """
    if pick is None:
        pick = lambda moves: min(moves, key=lambda w: (-len(w), w))
    plus = leaves(d.t_plus)
    minus = leaves(d.t_minus)
    terms = {plus[p]: (d.v[p], minus[d.tau[p]]) for p in range(len(plus))}
    reduced = _reduce_terms(terms, pick)
    alphas = sorted(reduced)
    betas = sorted(b for _j, b in reduced.values())
    b_index = {w: q for q, w in enumerate(betas)}
    tau = tuple(b_index[reduced[a][1]] for a in alphas)
    v = tuple(reduced[a][0] for a in alphas)
    return Diagram(tree_from_words(alphas), tree_from_words(betas), tau, v)


# group structure -------------------------------------------------------------

def group_mul(d1: Diagram, d2: Diagram) -> Diagram:
    return reduce(from_element(mul(to_element(d1), to_element(d2))))


def group_inv(d: Diagram) -> Diagram:
    """Swap the trees, invert the pairing, negate and transport the charges."""
    n = d.leaf_count()
    tau_inv = [0] * n
    v_inv = [0] * n
    for p in range(n):
        tau_inv[d.tau[p]] = p
        v_inv[d.tau[p]] = -d.v[p]
    return Diagram(d.t_minus, d.t_plus, tuple(tau_inv), tuple(v_inv))


def charge(d: Diagram) -> int:
    return sum(d.v)


# serialization ---------------------------------------------------------------

def diagram_to_json(d: Diagram) -> str:
    return json.dumps({"tplus": tree_to_obj(d.t_plus),
                       "tminus": tree_to_obj(d.t_minus),
                       "tau": list(d.tau), "v": list(d.v)},
                      separators=(", ", ": "))


def diagram_from_json(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos)
    try:
        t_plus, t_minus = tree_from_obj(obj["tplus"]), tree_from_obj(obj["tminus"])
        tau = tuple(int(x) for x in obj["tau"])
        v = tuple(int(x) for x in obj["v"])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad diagram JSON: {exc}")
    return Diagram(t_plus, t_minus, tau, v)


# rendering -------------------------------------------------------------------

def _layout(tree: Tree):
    """(node positions, edges, leaf node ids): leaves at x = leaf index,
    interior nodes centered over their children, depth as level."""
    pos: Dict[int, Tuple[float, int]] = {}
    edges: List[Tuple[int, int]] = []
    leaf_ids: List[int] = []
    counter = [0]
    next_x = [0]

    def walk(node, depth):
        nid = counter[0]
        counter[0] += 1
        if node == LEAF:
            pos[nid] = (float(next_x[0]), depth)
            next_x[0] += 1
            leaf_ids.append(nid)
            return nid
        lid = walk(node[0], depth + 1)
        rid = walk(node[1], depth + 1)
        pos[nid] = ((pos[lid][0] + pos[rid][0]) / 2, depth)
        edges.append((nid, lid))
        edges.append((nid, rid))
        return nid

    walk(tree, 0)
    return pos, edges, leaf_ids


def _charge_label(k: int) -> str:
    return f"+{k}" if k > 0 else str(k)


def render(d: Diagram, fmt: str = "dot") -> str:
    if fmt == "dot":
        return _render_dot(d)
    if fmt == "tikz":
        return _render_tikz(d)
    raise ParseError(f"unknown render format {fmt!r}")


def _render_dot(d: Diagram) -> str:
    ppos, pedges, pleaves = _layout(d.t_plus)
    mpos, medges, mleaves = _layout(d.t_minus)
    lines = ["graph diagram {", "  node [shape=point];"]
    lines.append('  subgraph cluster_plus {')
    lines.append('    label="T+";')
    for p, nid in enumerate(pleaves):
        lines.append(f'    p{nid} [shape=circle, label="{_charge_label(d.v[p])}"];')
    for a, b in pedges:
        lines.append(f"    p{a} -- p{b};")
    if not pedges:
        lines.append(f"    p{pleaves[0]};")
    lines.append("  }")
    lines.append('  subgraph cluster_minus {')
    lines.append('    label="T-";')
    for q, nid in enumerate(mleaves):
        lines.append(f'    m{nid} [shape=circle, label="{q + 1}"];')
    for a, b in medges:
        lines.append(f"    m{a} -- m{b};")
    if not medges:
        lines.append(f"    m{mleaves[0]};")
    lines.append("  }")
    for p, nid in enumerate(pleaves):
        lines.append(f"  p{nid} -- m{mleaves[d.tau[p]]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_tikz(d: Diagram) -> str:
    ppos, pedges, pleaves = _layout(d.t_plus)
    mpos, medges, mleaves = _layout(d.t_minus)
    pdepth = max(y for _x, y in ppos.values())
    lines = ["\\begin{tikzpicture}[every node/.style={inner sep=1pt}]"]
    # T+ grows downward from the top; T- mirrored below with a gap of 2
    for nid, (x, y) in sorted(ppos.items()):
        lines.append(f"  \\coordinate (p{nid}) at ({x:g}, {-y:g});")
    for nid, (x, y) in sorted(mpos.items()):
        lines.append(f"  \\coordinate (m{nid}) at ({x:g}, {y - 2 - pdepth:g});")
    for a, b in pedges:
        lines.append(f"  \\draw (p{a}) -- (p{b});")
    for a, b in medges:
        lines.append(f"  \\draw (m{a}) -- (m{b});")
    for p, nid in enumerate(pleaves):
        lines.append(f"  \\node[below] at (p{nid}) {{${_charge_label(d.v[p])}$}};")
    for p, nid in enumerate(pleaves):
        lines.append(f"  \\draw[dashed] (p{nid}) -- (m{mleaves[d.tau[p]]});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"

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
from typing import Dict, List, Tuple

from .element import Element, _unitary_terms, mul
from .errors import CapacityError, DomainError, ParseError
from .monomial import Monomial, expand_right
from .words import Word, carets, is_partition

Tree = object  # 0 for a leaf, (Tree, Tree) for an interior node

LEAF = 0

# trees deeper than this are refused, from diagram JSON and from elements:
# the tree walks below and the JSON codec recurse once per level
_MAX_TREE_DEPTH = 512


def leaves(tree: Tree) -> List[Word]:
    """Leaf words in left-to-right (lex) order."""
    out: List[Word] = []
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if node == LEAF:
            out.append(path)
        else:
            stack.append((node[1], path + (2,)))
            stack.append((node[0], path + (1,)))
    return out


def _leaf_count(tree: Tree) -> int:
    """The number of leaves, counted with a stack and no words built."""
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if node == LEAF:
            n += 1
        else:
            stack.extend(node)
    return n


def _tree(words) -> Tree:
    """The binary tree whose leaves are the words of a partition, given in
    lex (leaf) order.  A stack holds the finished subtrees; a word ending
    in 2 finishes its parent, whose left child p1 is finished and on top
    of the stack, and so on up each trailing 2."""
    stack: List[Tree] = []
    for w in words:
        node, i = LEAF, len(w)
        while i and w[i - 1] == 2:
            node = (stack.pop(), node)
            i -= 1
        stack.append(node)
    return stack.pop()


def tree_from_words(words) -> Tree:
    """The unique binary tree whose leaf set is the given partition;
    DomainError unless the words form one (words.is_partition)."""
    words = sorted(words)
    if not is_partition(words):
        raise DomainError("leaf words do not form a partition")
    return _tree(words)


def tree_from_obj(obj, depth: int = 0) -> Tree:
    if obj == 0:
        return LEAF
    if depth == _MAX_TREE_DEPTH:
        raise ParseError(f"tree nested deeper than {_MAX_TREE_DEPTH} levels")
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return (tree_from_obj(obj[0], depth + 1), tree_from_obj(obj[1], depth + 1))
    raise ParseError(f"bad tree node {obj!r}")


@dataclass(frozen=True)
class Diagram:
    t_plus: Tree
    t_minus: Tree
    tau: Tuple[int, ...]  # leaf p of t_plus pairs with leaf tau[p] of t_minus
    v: Tuple[int, ...]    # charge on leaf p of t_plus

    def __post_init__(self):
        n = _leaf_count(self.t_plus)
        if _leaf_count(self.t_minus) != n:
            raise DomainError("leaf counts differ")
        if sorted(self.tau) != list(range(n)):
            raise DomainError("tau is not a permutation of the leaves")
        if len(self.v) != n:
            raise DomainError("charge vector length does not match leaf count")

    def leaf_count(self) -> int:
        return len(self.v)


def identity_diagram() -> Diagram:
    return Diagram(LEAF, LEAF, (0,), (0,))


# term maps -------------------------------------------------------------------

# {alpha leaf: (charge, beta leaf)}, one entry per leaf of T+
Terms = Dict[Word, Tuple[int, Word]]


def _terms(d: Diagram) -> Terms:
    minus = leaves(d.t_minus)
    return {a: (k, minus[q]) for a, k, q in zip(leaves(d.t_plus), d.v, d.tau)}


def _diagram(terms: Terms) -> Diagram:
    """The diagram of a term map whose alpha words and beta words each form
    a partition; the callers have checked that."""
    alphas = sorted(terms)
    betas = sorted(b for _k, b in terms.values())
    t_plus, t_minus = _tree(alphas), _tree(betas)
    b_index = {w: q for q, w in enumerate(betas)}
    return Diagram(t_plus, t_minus, tuple(b_index[terms[a][1]] for a in alphas),
                   tuple(terms[a][0] for a in alphas))


def to_element(d: Diagram) -> Element:
    return Element({Monomial(a, k, b): 1 for a, (k, b) in _terms(d).items()})


def from_element(e: Element) -> Diagram:
    """Read the diagram off a unitary's refined form (element._refine),
    which has coefficient 1 and partition word families on both sides; a
    stored form that is already a tree pair is its own refined form.
    Anything else is not a W element, and a word longer than
    _MAX_TREE_DEPTH is a CapacityError."""
    f = _unitary_terms(e, "a diagram")
    if max(len(w) for m in f for w in (m.alpha, m.beta)) > _MAX_TREE_DEPTH:
        raise CapacityError(f"the diagram is deeper than {_MAX_TREE_DEPTH} levels")
    return _diagram({m.alpha: (m.k, m.beta) for m in f})


# reduction ------------------------------------------------------------------

def reduce(d: Diagram) -> Diagram:
    """The reduced form: merge sibling leaves wherever they undo one
    charge-parity split (expand_right), in one pass over the carets of T+.

    A merge at caret w reads only the terms at w1 and w2, which change only
    through merges at w1 and w2; visiting the carets deepest first settles
    both before w, so no move is left after the pass.  Reduced forms are
    unique, so this is the result of any order of moves.
    """
    terms = _terms(d)
    for w in sorted(carets(terms), key=len, reverse=True):
        w1, w2 = w + (1,), w + (2,)
        if w1 not in terms or w2 not in terms:
            continue
        (j1, b1), (j2, b2) = terms[w1], terms[w2]
        parent = Monomial(w, j1 + j2, b1[:-1])
        if expand_right(parent) == (Monomial(w1, j1, b1), Monomial(w2, j2, b2)):
            del terms[w1], terms[w2]
            terms[w] = (parent.k, parent.beta)
    return _diagram(terms)


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
    return json.dumps({"tplus": d.t_plus, "tminus": d.t_minus,
                       "tau": list(d.tau), "v": list(d.v)},
                      separators=(", ", ": "))


def diagram_from_json(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos)
    except RecursionError:
        raise ParseError("bad JSON: nested too deep")
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

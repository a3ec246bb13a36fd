"""Tree-pair diagrams with integer leaf charges.

A diagram (T+, T-, tau, v) encodes the unitary sum over leaves p of
S_{leaf_p(T+)} U^{v(p)} S_{leaf_{tau(p)}(T-)}*.  These unitaries form a
group under multiplication; this module multiplies, inverts and reduces
diagrams, converts between diagrams and Elements, and draws them.

The group works on leaf maps, one (alpha, k, beta) triple per leaf: a
product walks the leaves of T1- and T2+ together in lex order, one output
leaf per step, and a reduction merges sibling leaves in one pass over the
leaves in lex order.  Neither builds an Element: to_element and
from_element are the bridge to the algebra, for the CLI and for checking
the group against the operator product.

Trees are nested pairs: a leaf is 0, an interior node is (left, right).
The left child extends a leaf word by the letter 1, the right child by 2,
so left-to-right leaf order is lex order.  tau is stored 0-based.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

from .element import Element, _unitary_terms
from .errors import CapacityError, DomainError, ParseError
from .monomial import Monomial
from .words import Word, decode, is_partition, offset

Tree = object  # 0 for a leaf, (Tree, Tree) for an interior node

LEAF = 0

# trees deeper than this are refused, from diagram JSON and from elements:
# leaves, _leaf_count and _tree walk a stack, but tree_from_obj, the JSON
# codec and render's _layout recurse once per level
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


class _DiagramFields(NamedTuple):
    t_plus: Tree
    t_minus: Tree
    tau: Tuple[int, ...]  # leaf p of t_plus pairs with leaf tau[p] of t_minus
    v: Tuple[int, ...]    # charge on leaf p of t_plus


class Diagram(_DiagramFields):
    """A tree-pair diagram, checked when built: equal leaf counts, tau a
    permutation of the leaves and one charge per leaf."""

    __slots__ = ()

    def __new__(cls, t_plus: Tree, t_minus: Tree, tau: Tuple[int, ...],
                v: Tuple[int, ...]):
        n = _leaf_count(t_plus)
        if _leaf_count(t_minus) != n:
            raise DomainError("leaf counts differ")
        if sorted(tau) != list(range(n)):
            raise DomainError("tau is not a permutation of the leaves")
        if len(v) != n:
            raise DomainError("charge vector length does not match leaf count")
        return tuple.__new__(cls, (t_plus, t_minus, tau, v))

    def leaf_count(self) -> int:
        return len(self.v)


def identity_diagram() -> Diagram:
    return Diagram(LEAF, LEAF, (0,), (0,))


# leaf maps -------------------------------------------------------------------

# one (alpha, k, beta) triple per leaf of T+, in lex order of alpha: alpha the
# T+ leaf, k its charge, beta the T- leaf paired with it
Leaf = Tuple[Word, int, Word]


def _leaf_map(d: Diagram) -> List[Leaf]:
    minus = leaves(d.t_minus)
    return [(a, k, minus[q]) for a, k, q in zip(leaves(d.t_plus), d.v, d.tau)]


def _check_depth(terms: List[Leaf]) -> None:
    if max(max(len(a), len(b)) for a, _k, b in terms) > _MAX_TREE_DEPTH:
        raise CapacityError(f"the diagram is deeper than {_MAX_TREE_DEPTH} levels")


def _diagram(terms: List[Leaf]) -> Diagram:
    """The diagram of a leaf map in lex order of alpha whose alpha words and
    beta words each form a partition; the callers have checked that."""
    alphas, ks, betas = zip(*terms)
    minus = sorted(betas)
    b_index = {w: q for q, w in enumerate(minus)}
    tau = tuple(map(b_index.__getitem__, betas))
    return Diagram(_tree(alphas), _tree(minus), tau, ks)


def to_element(d: Diagram) -> Element:
    return Element({Monomial(a, k, b): 1 for a, k, b in _leaf_map(d)})


def from_element(e: Element) -> Diagram:
    """Read the diagram off a unitary's refined form (element._refine),
    which has coefficient 1 and partition word families on both sides; a
    stored form that is already a tree pair is its own refined form.
    Anything else is not a W element, and a word longer than
    _MAX_TREE_DEPTH is a CapacityError."""
    terms = sorted(_unitary_terms(e, "a diagram"))
    _check_depth(terms)
    return _diagram(terms)


# reduction ------------------------------------------------------------------

def _reduce(terms: List[Leaf]) -> List[Leaf]:
    """The reduced leaf map: merge sibling leaves w1, w2 into w wherever
    they undo one charge-parity split (expand_right),

        even:  (w1, j, x1), (w2, j, x2)    -> (w, 2j, x)
        odd:   (w1, j, x2), (w2, j + 1, x1) -> (w, 2j + 1, x),

    in one pass over the leaves in lex order.  The stack holds the reduced
    leaves left of the current one.  The leaf before w2 in lex order is the
    last leaf below w1, so it is w1 itself exactly when it has w2's length,
    and a merged w is checked against its own sibling in turn.  All of w1's
    subtree is reduced before w2 arrives, so no move is missed; reduced
    forms are unique, so this is the result of any order of moves.
    """
    stack: List[Leaf] = []
    for a, k, b in terms:
        while a and a[-1] == 2:
            a1, j1, b1 = stack[-1]
            if len(a1) != len(a) or len(b1) != len(b) or b1[:-1] != b[:-1] \
                    or k - j1 != b1[-1] - 1:
                break
            stack.pop()
            a, k, b = a[:-1], j1 + k, b[:-1]
        stack.append((a, k, b))
    return stack


def reduce(d: Diagram) -> Diagram:
    """The reduced form: sibling leaves merged wherever they undo one
    charge-parity split, until no merge is left (_reduce)."""
    return _diagram(_reduce(_leaf_map(d)))


# group structure -------------------------------------------------------------

def _product(d1: Diagram, d2: Diagram) -> List[Leaf]:
    """The leaf map of d1 d2, unreduced and in lex order of alpha.

    The product sum_i S_a1 U^k1 S_b1* S_a2 U^k2 S_b2* keeps the pairs whose
    inner words b1 (a leaf of T1-) and a2 (a leaf of T2+) are comparable.
    Both are partitions, so walking their leaves together in lex order meets
    each such pair once, and one word of each pair is a prefix of the other.
    Words are read as (|w|, t(w)), as in Element.__mul__: for b1 a prefix of
    a2 = b1 g, U^k1 S_g = S_g2 U^q, and for a2 a prefix of b1 = a2 d,
    S_d* U^k2 = U^-q S_d2*, each by one divmod.  The shorter word stays for
    the next step unless the longer one was the last leaf below it (g or d
    all 2s, offset 0).  The alphas and betas written are partitions again.
    """
    minus1 = leaves(d1.t_minus)
    left: List[Tuple[Word, int, int, int]] = [None] * len(minus1)
    for a, k, q in zip(leaves(d1.t_plus), d1.v, d1.tau):
        left[q] = (a, k, len(minus1[q]), offset(minus1[q]))
    right = [(len(a), offset(a), k, b) for a, k, b in _leaf_map(d2)]
    out: List[Leaf] = []
    i = 0
    for n2, t2, k2, b2 in right:
        while True:
            a1, k1, n1, t1 = left[i]
            if n1 <= n2:
                g = t2 >> n1
                q, t = divmod(g + k1, 1 << (n2 - n1))
                out.append((a1 + decode(n2 - n1, t), q + k2, b2))
                if not g:
                    i += 1
                break
            d = t1 >> n2
            q, t = divmod(d - k2, 1 << (n1 - n2))
            out.append((a1, k1 - q, b2 + decode(n1 - n2, t)))
            i += 1
            if not d:
                break
    out.sort()
    return out


def group_mul(d1: Diagram, d2: Diagram) -> Diagram:
    """The reduced diagram of the product, computed on the leaf maps; a
    product with a word longer than _MAX_TREE_DEPTH is a CapacityError."""
    terms = _product(d1, d2)
    _check_depth(terms)
    return _diagram(_reduce(terms))


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

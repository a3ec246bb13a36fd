"""Tree-pair diagrams with integer leaf charges.

A diagram (T+, T-, tau, v) encodes the unitary sum over leaves p of
S_{leaf_p(T+)} U^{v(p)} S_{leaf_{tau(p)}(T-)}*.  These unitaries form a
group under multiplication; this module multiplies, inverts and reduces
diagrams, converts between diagrams and Elements, and draws them.

A Diagram is stored as its leaf map, one (alpha, k, beta) triple per leaf:
alpha the T+ leaf, k its charge, beta the T- leaf it pairs with, in lex
order of alpha.  Products, inverses and reductions read and write leaf
maps and build no tree and no Element.  Trees exist only at the edges:
the constructor walks them into words once and keeps them, and the JSON
codec and render read them back off the t_plus, t_minus, tau and v
properties, derived once for a diagram a group operation made.

Trees are nested pairs: a leaf is 0, an interior node is (left, right).
The left child extends a leaf word by the letter 1, the right child by 2,
so left-to-right leaf order is lex order.  tau is 0-based.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Dict, List, Tuple

from .element import Element, _json_int, _json_name, _unitary_terms
from .errors import CapacityError, DomainError, ParseError
from .monomial import new_monomial
from .words import Word, decode, is_partition, offset

Tree = object  # 0 for a leaf, (Tree, Tree) for an interior node
Leaf = Tuple[Word, int, Word]  # (alpha, k, beta)

LEAF = 0

# trees deeper than this are refused, by the constructor, from diagram JSON
# and from elements: leaves and _tree walk a stack, but tree_from_obj, the
# JSON codec and render's _layout recurse once per level
_MAX_TREE_DEPTH = 512
_TOO_DEEP = f"the diagram is deeper than {_MAX_TREE_DEPTH} levels"

_beta = itemgetter(2)


def leaves(tree: Tree) -> List[Word]:
    """Leaf words in left-to-right (lex) order.  A node below
    _MAX_TREE_DEPTH levels is a CapacityError, raised before any word
    through it is built, so no word walked is longer than the cap."""
    out: List[Word] = []
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if node == LEAF:
            out.append(path)
        elif len(path) == _MAX_TREE_DEPTH:
            raise CapacityError(_TOO_DEEP)
        else:
            stack.append((node[1], path + (2,)))
            stack.append((node[0], path + (1,)))
    return out


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
    """The tree of diagram JSON: the integer 0 for a leaf (not false or
    0.0), a pair [left, right] for an interior node."""
    if type(obj) is int and obj == 0:
        return LEAF
    if depth == _MAX_TREE_DEPTH:
        raise ParseError(f"tree nested deeper than {_MAX_TREE_DEPTH} levels")
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return (tree_from_obj(obj[0], depth + 1), tree_from_obj(obj[1], depth + 1))
    raise ParseError(f"bad tree node {_json_name(obj)}; want 0 or a pair")


class Diagram:
    """A tree-pair diagram, stored as its leaf map.  The constructor checks
    its arguments: trees at most _MAX_TREE_DEPTH deep (CapacityError),
    equal leaf counts, tau a permutation of the leaves and one charge per
    leaf.  The leaf map and (t_plus, t_minus, tau, v) determine each other,
    so equality and hashing are those of the leaf map."""

    __slots__ = ("leaf_map", "_fields")

    def __init__(self, t_plus: Tree, t_minus: Tree, tau: Tuple[int, ...],
                 v: Tuple[int, ...]):
        plus, minus = leaves(t_plus), leaves(t_minus)
        if len(minus) != len(plus):
            raise DomainError("leaf counts differ")
        if sorted(tau) != list(range(len(plus))):
            raise DomainError("tau is not a permutation of the leaves")
        if len(v) != len(plus):
            raise DomainError("charge vector length does not match leaf count")
        self.leaf_map: Tuple[Leaf, ...] = tuple(
            zip(plus, v, map(minus.__getitem__, tau)))
        self._fields = (t_plus, t_minus, tuple(tau), tuple(v))

    def _derive(self):
        """The fields of a diagram made from a leaf map, read off it once:
        leaf p of t_plus pairs with leaf tau[p] of t_minus."""
        alphas, v, betas = zip(*self.leaf_map)
        minus = sorted(betas)
        rank = {b: q for q, b in enumerate(minus)}
        self._fields = (_tree(alphas), _tree(minus),
                        tuple(map(rank.__getitem__, betas)), v)
        return self._fields

    # the constructor's arguments, kept by it or derived on the first read
    t_plus = property(lambda self: (self._fields or self._derive())[0])
    t_minus = property(lambda self: (self._fields or self._derive())[1])
    tau = property(lambda self: (self._fields or self._derive())[2])
    v = property(lambda self: (self._fields or self._derive())[3])

    def leaf_count(self) -> int:
        return len(self.leaf_map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.leaf_map == other.leaf_map

    def __hash__(self) -> int:
        return hash(self.leaf_map)

    def __repr__(self) -> str:
        return (f"Diagram(t_plus={self.t_plus!r}, t_minus={self.t_minus!r}, "
                f"tau={self.tau!r}, v={self.v!r})")


def _diagram(terms) -> Diagram:
    """The diagram of a leaf map in lex order of alpha whose alpha words and
    beta words each form a partition; the callers have checked that."""
    d = object.__new__(Diagram)
    d.leaf_map = tuple(terms)
    d._fields = None
    return d


def identity_diagram() -> Diagram:
    return _diagram([((), 0, ())])


def _check_depth(terms: List[Leaf]) -> None:
    alphas, _v, betas = zip(*terms)
    if max(map(len, alphas + betas)) > _MAX_TREE_DEPTH:
        raise CapacityError(_TOO_DEEP)


def to_element(d: Diagram) -> Element:
    return Element(dict.fromkeys(map(new_monomial, d.leaf_map), 1))


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
    return _diagram(_reduce(d.leaf_map))


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
    left = [(a, k, len(b), offset(b))
            for a, k, b in sorted(d1.leaf_map, key=_beta)]
    out: List[Leaf] = []
    i = 0
    for a2, k2, b2 in d2.leaf_map:
        n2, t2 = len(a2), offset(a2)
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
    """The swapped triples (beta, -k, alpha), sorted into lex order of beta."""
    return _diagram(sorted([(b, -k, a) for a, k, b in d.leaf_map]))


def charge(d: Diagram) -> int:
    return sum(k for _a, k, _b in d.leaf_map)


# serialization ---------------------------------------------------------------

def diagram_to_json(d: Diagram) -> str:
    return json.dumps({"tplus": d.t_plus, "tminus": d.t_minus,
                       "tau": list(d.tau), "v": list(d.v)},
                      separators=(", ", ": "))


def _json_ints(obj, key: str) -> Tuple[int, ...]:
    """Diagram JSON's tau or v: an array of JSON integers or of strings
    that int() reads."""
    row = obj[key]
    if type(row) is not list:
        raise ParseError(f"bad diagram JSON: {key!r} must be an array")
    return tuple(int(x) if type(x) is str else
                 _json_int(x, f"bad diagram JSON: each entry of {key!r}")
                 for x in row)


def diagram_from_json(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos)
    except RecursionError:
        raise ParseError("bad JSON: nested too deep")
    except ValueError as exc:  # an integer past the int-conversion limit
        raise ParseError(f"bad JSON: {exc}")
    try:
        t_plus, t_minus = tree_from_obj(obj["tplus"]), tree_from_obj(obj["tminus"])
        tau, v = _json_ints(obj, "tau"), _json_ints(obj, "v")
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"bad diagram JSON: missing field {exc.args[0]!r}")
    except (TypeError, ValueError, OverflowError) as exc:
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


def _dot_cluster(tag: str, name: str, title: str, edges, leaf_ids,
                 labels) -> List[str]:
    lines = [f"  subgraph cluster_{name} {{", f'    label="{title}";']
    lines += [f'    {tag}{nid} [shape=circle, label="{label}"];'
              for nid, label in zip(leaf_ids, labels)]
    lines += [f"    {tag}{a} -- {tag}{b};" for a, b in edges] \
        or [f"    {tag}{leaf_ids[0]};"]
    return lines + ["  }"]


def _render_dot(d: Diagram) -> str:
    ppos, pedges, pleaves = _layout(d.t_plus)
    mpos, medges, mleaves = _layout(d.t_minus)
    lines = ["graph diagram {", "  node [shape=point];"]
    lines += _dot_cluster("p", "plus", "T+", pedges, pleaves,
                          map(_charge_label, d.v))
    lines += _dot_cluster("m", "minus", "T-", medges, mleaves,
                          range(1, len(mleaves) + 1))
    lines += [f"  p{nid} -- m{mleaves[q]} [style=dashed];"
              for nid, q in zip(pleaves, d.tau)]
    return "\n".join(lines) + "\n}\n"


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
    for nid, k in zip(pleaves, d.v):
        lines.append(f"  \\node[below] at (p{nid}) {{${_charge_label(k)}$}};")
    for nid, q in zip(pleaves, d.tau):
        lines.append(f"  \\draw[dashed] (p{nid}) -- (m{mleaves[q]});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"

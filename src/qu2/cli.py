"""Command-line front end.

One verb per engine operation plus the two reproduction suites; a verb parses
its arguments, calls the library and prints the answer.  Exit codes: 0 for
success (including predicates that evaluate to false; the truth value is in the
payload), 1 for domain or capacity errors, 2 for usage and parse errors.  All
output is byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CapacityError, DomainError, ParseError
from .element import (
    Element,
    _first_difference,
    element_str,
    is_unitary,
    membership,
    normalize,
    parse_element,
    putnam_form,
    bd_v_factor,
    total_charge,
    to_json as element_to_json,
)

# canrep, wgroup and endo are imported by the verbs that run them, so a
# verb of the element layer does not load (or compile) the other layers
if TYPE_CHECKING:
    from .wgroup import Diagram


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_unitary(text: str, level):
    """Permutative unitary from cycle notation (needs --level) or element text."""
    from .endo import perm_unitary_from_cycles, perm_unitary_from_element

    if text == "id" or text.lstrip().startswith("("):
        if level is None:
            raise DomainError("cycle notation needs --level")
        return perm_unitary_from_cycles(level, text)
    return perm_unitary_from_element(parse_element(text), level)


def _parse_diagram_arg(text: str) -> Diagram:
    from .wgroup import diagram_from_json, from_element

    if text.lstrip().startswith("{"):
        return diagram_from_json(text)
    return from_element(parse_element(text))


_BASIS = re.compile(r"^(?:e_?)?(-?\d+)$")
_EVAL_TOKEN = re.compile(r"^(Uz|U|S1|S2)(\*?)(?:\[([^\]]+)\])?$")
# an integer, p/q or a decimal: no exponent, whose power Fraction would build
_ANGLE = re.compile(r"\s*[+-]?(?:\d+(?:/\d+)?|\d*\.\d+)\s*")


def _angle(text: str) -> Fraction:
    """The angle of --z or of Uz[...]; no match (TypeError), q = 0 and
    digits over the int-conversion limit are parse errors."""
    try:
        return Fraction(_ANGLE.fullmatch(text)[0])
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParseError(f"bad angle {text!r}; want a/2^n") from None


def _parse_eval_word(word: str, z_flag):
    """Generator tokens like "Uz[1/4] U S2*"; returns (z, token list)."""
    tokens = []
    z = _angle(z_flag) if z_flag is not None else None
    for raw in word.split():
        m = _EVAL_TOKEN.match(raw)
        if m is None:
            raise ParseError(f"bad generator token {raw!r}")
        base, star, angle = m.groups()
        if angle is not None:
            if base != "Uz":
                raise ParseError(f"only Uz tokens carry an angle: {raw!r}")
            val = _angle(angle)
            if z is not None and val != z:
                raise ParseError("conflicting Uz angles")
            z = val
        tokens.append(base + star)
    if any(t.startswith("Uz") for t in tokens) and z is None:
        raise ParseError("Uz used without an angle; pass Uz[a/2^n] or --z")
    return (z if z is not None else Fraction(0)), tokens


# ---------------------------------------------------------------- verbs


def cmd_normalize(args):
    e = parse_element(args.expr)
    out = normalize(e, args.depth)
    _emit(args, [element_str(out)], json.loads(element_to_json(out)))


def cmd_mul(args):
    out = parse_element(args.expr[0])
    for text in args.expr[1:]:
        out = out * parse_element(text)
    _emit(args, [element_str(out)], json.loads(element_to_json(out)))


def cmd_eq(args):
    diff = _first_difference(parse_element(args.left), parse_element(args.right))
    lines, payload = ["true" if diff is None else "false"], {"eq": diff is None}
    if args.explain:
        payload["witness"] = None
        if diff is not None:
            term = Element.mono(*diff)
            lines.append(f"witness: {element_str(term)}")
            payload["witness"] = json.loads(element_to_json(term))[0]
    _emit(args, lines, payload)


def cmd_adjoint(args):
    out = parse_element(args.expr).adjoint()
    _emit(args, [element_str(out)], json.loads(element_to_json(out)))


def cmd_unitary(args):
    res = is_unitary(parse_element(args.expr))
    _emit(args, ["true" if res else "false"], {"unitary": res})


def cmd_membership(args):
    flags = membership(parse_element(args.expr))
    keys = ["in_O2", "in_QT", "in_F2", "in_D2"]
    line = " ".join(f"{k}={'true' if flags[k] else 'false'}" for k in keys)
    _emit(args, [line], {k: flags[k] for k in keys})


def cmd_putnam(args):
    pairs = putnam_form(parse_element(args.expr))
    lines = [f"{n}\t{element_str(p)}" for p, n in pairs]
    payload = [
        {"exponent": n, "projection": json.loads(element_to_json(p))}
        for p, n in pairs
    ]
    _emit(args, lines, payload)


def cmd_factor(args):
    bd, v = bd_v_factor(parse_element(args.expr))
    lines = [f"bd\t{element_str(bd)}", f"v\t{element_str(v)}"]
    payload = {
        "bd": json.loads(element_to_json(bd)),
        "v": json.loads(element_to_json(v)),
    }
    _emit(args, lines, payload)


def cmd_charge(args):
    if args.expr.lstrip().startswith("{"):
        from .wgroup import charge as diagram_charge, diagram_from_json

        n = diagram_charge(diagram_from_json(args.expr))
    else:
        n = total_charge(parse_element(args.expr))
    _emit(args, [str(n)], {"charge": n})


def cmd_diagram(args):
    from .wgroup import diagram_to_json, from_element

    text = diagram_to_json(from_element(parse_element(args.expr)))
    _emit(args, [text], json.loads(text))


def cmd_render(args):
    from .wgroup import render as diagram_render

    out = diagram_render(_parse_diagram_arg(args.arg), args.format)
    _emit(args, [out], {"format": args.format, "source": out})


def cmd_reduce(args):
    from .wgroup import diagram_to_json, reduce as diagram_reduce

    text = diagram_to_json(diagram_reduce(_parse_diagram_arg(args.arg)))
    _emit(args, [text], json.loads(text))


def cmd_eval(args):
    from .canrep import phase_apply

    m = _BASIS.match(args.basis.strip())
    if m is None:
        raise ParseError(f"bad basis vector {args.basis!r}; want e_k or k")
    k = int(m.group(1))
    z, tokens = _parse_eval_word(args.word, args.z)
    out = phase_apply(z, tokens, k)
    if out is None:
        _emit(args, ["zero"], "zero")
    else:
        text = f"e_{out.index}" if out.phase == 0 else f"({out.phase})*e_{out.index}"
        _emit(args, [text], {"phase": str(out.phase), "index": out.index})


def cmd_check_ext(args):
    from .endo import check_extension_parts, template_element

    pu = _parse_unitary(args.unitary, args.level)
    template = template_element(pu.level, args.template)
    e1, e2 = check_extension_parts(pu, template)
    line = (
        f"ext1={'true' if e1 else 'false'} ext2={'true' if e2 else 'false'} "
        f"extendible={'true' if e1 and e2 else 'false'}"
    )
    _emit(args, [line], {"ext1": e1, "ext2": e2, "extendible": e1 and e2})


def cmd_templates(args):
    from .endo import u_templates_labeled

    rows = [(label, element_str(t)) for label, t in u_templates_labeled(args.level)]
    lines = [f"{label}\t{text}" for label, text in rows]
    payload = [{"label": label, "element": text} for label, text in rows]
    _emit(args, lines, payload)


def cmd_construct(args):
    from .endo import construct

    endo = construct(args.level, args.template, perm=args.perm,
                     sigma1=args.sigma1, sigma2=args.sigma2)
    payload = {
        "cycles": endo.u.cycles(),
        "u": element_str(endo.u.element),
        "u_tilde": element_str(endo.u_tilde),
        "verified": endo.verified,
    }
    lines = [
        f"u\t{payload['cycles']}\t{payload['u']}",
        f"u_tilde\t{payload['u_tilde']}",
        f"verified\t{'true' if endo.verified else 'false'}",
    ]
    _emit(args, lines, payload)


def cmd_enumerate(args):
    from .endo import enumerate_menu, template_members

    k = args.level
    if args.all_templates:
        results = list(enumerate_menu(k, mode=args.mode))
    elif args.template:
        results = [(args.template, pu)
                   for pu in template_members(k, args.template, args.mode)]
    else:
        raise DomainError("enumerate needs --template or --all-templates")
    rows = [(label, pu.cycles(), element_str(pu.element))
            for label, pu in results]
    lines = ["\t".join(row) for row in rows]
    lines.append(f"{len(rows)} results")
    payload = {
        "level": k,
        "mode": args.mode,
        "results": [{"template": label, "cycles": cycles, "element": text}
                    for label, cycles, text in rows],
        "count": len(rows),
    }
    _emit(args, lines, payload)


def cmd_probe(args):
    from .endo import automorphism_probe

    pu = _parse_unitary(args.unitary, args.level)
    res = automorphism_probe(pu, depth=args.depth)
    if res.stabilized:
        witness = element_str(res.witness)
        lines = [f"stabilized_at={res.stabilized_at}\twitness={witness}"]
        payload = {"stabilized_at": res.stabilized_at, "witness": witness}
    else:
        lines = [f"inconclusive (depth {args.depth})"]
        payload = {"inconclusive": True, "depth": args.depth}
    _emit(args, lines, payload)


# ---------------------------------------------------------------- suites


def _table_path(arg):
    if arg:
        return arg
    env = os.environ.get("QU2_TABLE")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "appendix_level3.tsv")


def cmd_verify_table(args):
    from .endo import run_verify_table

    total, failures = run_verify_table(_table_path(args.table))
    lines = [f"row {i}: {reason}" for i, reason in failures]
    lines.append(f"{total - len(failures)}/{total} verified")
    payload = {
        "total": total,
        "verified": total - len(failures),
        "failures": [{"row": i, "reason": r} for i, r in failures],
    }
    _emit(args, lines, payload)


def cmd_verify_counts(args):
    from .endo import run_verify_counts

    report, checks = run_verify_counts(args.level, sample=args.sample)
    lines = [
        f"{label}\tcount={count}\texpected={expected}\t{'ok' if ok else 'FAIL'}"
        for label, count, expected, ok in report
    ]
    good = sum(1 for *_, ok in report if ok)
    status = "PASS" if good == len(report) else "FAIL"
    lines.append(
        f"verify-counts level={args.level} templates_ok={good}/{len(report)} "
        f"checks={checks} result={status}"
    )
    payload = {
        "level": args.level,
        "templates": [
            {"label": label, "count": count, "expected": expected, "ok": ok}
            for label, count, expected, ok in report
        ],
        "checks": checks,
        "result": status,
    }
    _emit(args, lines, payload)


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qu2",
        description="Exact computations in the 2-adic ring C*-algebra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("normalize", cmd_normalize, "canonical form of an element")
    p.add_argument("expr")
    p.add_argument("--depth", type=int, default=None)

    p = add("mul", cmd_mul, "product of elements")
    p.add_argument("expr", nargs="+")

    p = add("eq", cmd_eq, "exact equality of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--explain", action="store_true",
                   help="on false, name the first refined term of "
                        "left - right that is not zero, with its coefficient")

    p = add("adjoint", cmd_adjoint, "adjoint of an element")
    p.add_argument("expr")

    p = add("unitary", cmd_unitary, "is the element unitary (e* e = 1 = e e*)")
    p.add_argument("expr")

    p = add("membership", cmd_membership, "subalgebra membership flags")
    p.add_argument("expr")

    p = add("putnam", cmd_putnam,
            "projection/translation form of a gauge-invariant unitary")
    p.add_argument("expr")

    p = add("factor", cmd_factor, "diagonal-times-tree-pair factorization")
    p.add_argument("expr")

    p = add("charge", cmd_charge, "total charge of a unitary or diagram")
    p.add_argument("expr")

    p = add("diagram", cmd_diagram, "tree-pair diagram of a unitary (JSON)")
    p.add_argument("expr")

    p = add("render", cmd_render, "DOT or TikZ picture of a diagram")
    p.add_argument("arg", help="diagram JSON or element expression")
    p.add_argument("--format", choices=("dot", "tikz"), default="dot")

    p = add("reduce", cmd_reduce, "reduced tree-pair diagram (JSON)")
    p.add_argument("arg", help="diagram JSON or element expression")

    p = add("eval", cmd_eval, "apply a generator word to a basis vector")
    p.add_argument("word", help='tokens like "Uz[1/4] U S2*"')
    p.add_argument("basis", help="basis vector e_k (or bare integer k)")
    p.add_argument("--z", default=None, help="phase angle a/2^n for Uz tokens")

    p = add("check-ext", cmd_check_ext, "extension equations for a unitary")
    p.add_argument("unitary", help="element expression or cycle notation")
    p.add_argument("--template", required=True,
                   help="U+, U-, M1:h, M2:h, AD:cycles, AD*:cycles, or an "
                        "element expression")
    p.add_argument("--level", type=int, default=None)

    p = add("templates", cmd_templates, "extension-candidate menu at a level")
    p.add_argument("--level", type=int, required=True)

    p = add("construct", cmd_construct, "build one constructive family member")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--perm", default=None,
                   help="cycles for the block permutation (U+/U-)")
    p.add_argument("--sigma1", default=None,
                   help="cycles over the length-(k-2) words, first side (M*)")
    p.add_argument("--sigma2", default=None,
                   help="cycles over the length-(k-2) words, second side")

    p = add("enumerate", cmd_enumerate, "extendible unitaries per template")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--template", default=None)
    p.add_argument("--all-templates", action="store_true")
    p.add_argument("--mode", choices=("brute", "constructive"),
                   default="brute")

    p = add("probe", cmd_probe, "symbolic automorphism probe")
    p.add_argument("unitary", help="element expression or cycle notation")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--depth", type=int, default=6)

    p = add("verify-table", cmd_verify_table,
            "verify every row of the level-3 classification table")
    p.add_argument("table", nargs="?", default=None,
                   help="TSV path (default: $QU2_TABLE or the packaged copy)")

    p = add("verify-counts", cmd_verify_counts,
            "constructive family sizes against the closed-form counts")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--sample", type=int, default=1000,
                   help="extension checks per oversized family (0 = all)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ParseError as exc:
        print(f"qu2: parse error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, DomainError) as exc:
        print(f"qu2: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"qu2: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

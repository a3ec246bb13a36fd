"""End-to-end tests for the command-line driver (in-process main())."""

import ast
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from qu2.cli import main
from qu2.element import element_str, eq, from_json, parse_element, s, u
from qu2.endo import mixed_template, perm_unitary_from_cycles

from helpers import SRC, one_line_error, run_limited, time_limit

CLI_SOURCE = SRC / "qu2" / "cli.py"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------- algebra verbs


def test_eq_verb(capsys):
    code, out, _ = run(capsys, "eq", "U U", "S[1] U S*[1] + S[2] U S*[2]")
    assert (code, out) == (0, "true\n")
    # a false predicate is still a successful run
    code, out, _ = run(capsys, "eq", "U", "1")
    assert (code, out) == (0, "false\n")


@pytest.mark.parametrize("cycles, variant", [("(1 3 4)", 2), ("(1 4 2)", 1)])
def test_eq_explain_names_the_witness(capsys, cycles, variant):
    # criterion 1's near misses: the second extension equation fails
    template = mixed_template(2, 0, variant)
    element = perm_unitary_from_cycles(2, cycles).element
    s1t, s2t = (element * s((i,)) for i in (1, 2))
    left, right = element_str(template * s1t), element_str(s2t * template)
    code, out, _ = run(capsys, "eq", left, right)
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "eq", left, right, "--explain")
    verdict, line = out.splitlines()
    assert (code, verdict) == (0, "false") and line.startswith("witness: ")
    (m, c), = parse_element(line[len("witness: "):]).terms.items()
    from test_element import refined_maps  # it imports this module
    f1, f2 = refined_maps(parse_element(left), parse_element(right))
    assert c == f1.get(m, 0) - f2.get(m, 0) != 0
    code, out, _ = run(capsys, "eq", left, right, "--explain", "--json")
    payload = json.loads(out)
    assert payload["eq"] is False
    assert from_json(json.dumps([payload["witness"]])).terms == {m: c}


@pytest.mark.parametrize("left, right, witness, row", [
    ("P[1] + 2*P[22]", "P[22]", "P[1]",
     {"alpha": "1", "beta": "1", "coeff": "1", "k": 0}),
    ("S[2] U S*[1] + P[21]", "1/2*P[21]", "S[2] U S*[1]",
     {"alpha": "2", "beta": "1", "coeff": "1", "k": 1}),
    ("S[1] U^3 S*[1] + 1/2*S[2] S*[221]", "S[2] S*[221]", "S[1] U^3 S*[1]",
     {"alpha": "1", "beta": "1", "coeff": "1", "k": 3}),
])
def test_eq_explain_names_the_first_leaf(capsys, left, right, witness, row):
    # the two sides differ at a longest beta too, but the witness is the
    # first differing leaf in depth-first order (letter 1 first)
    code, out, _ = run(capsys, "eq", left, right, "--explain")
    assert (code, out) == (0, f"false\nwitness: {witness}\n")
    code, out, _ = run(capsys, "eq", left, right, "--explain", "--json")
    assert json.loads(out) == {"eq": False, "witness": row}


def test_eq_explain_on_equal_elements(capsys):
    code, out, _ = run(capsys, "eq", "U", "S[1] S*[2] + S[2] U S*[1]",
                       "--explain")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "eq", "U", "U", "--explain", "--json")
    assert json.loads(out) == {"eq": True, "witness": None}


def test_normalize_depth_and_json(capsys):
    code, out, _ = run(capsys, "normalize", "U", "--depth", "1")
    assert code == 0
    assert out == "S[1] S*[2] + S[2] U S*[1]\n"

    code, out, _ = run(capsys, "normalize", "U U", "--json")
    assert code == 0
    assert eq(from_json(out), parse_element("U^2"))


def test_mul_chain(capsys):
    code, out, _ = run(capsys, "mul", "S[1]", "U", "S*[1]")
    assert code == 0
    assert eq(parse_element(out), parse_element("S[1] U S*[1]"))


def test_adjoint_unitary_membership(capsys):
    code, out, _ = run(capsys, "adjoint", "S[12] U^3")
    assert code == 0
    assert eq(parse_element(out), parse_element("U^-3 S*[12]"))

    code, out, _ = run(capsys, "unitary", "S[1] S*[2] + S[2] S*[1]")
    assert (code, out) == (0, "true\n")
    # unitaries outside W; text that begins with '-' goes after '--'
    for text in ["-1*U", "P[1] - P[2]",
                 "3/5*P[1] + 4/5*S[1] S*[2] - 4/5*S[2] S*[1] + 3/5*P[2]"]:
        assert run(capsys, "unitary", "--", text)[:2] == (0, "true\n")
    assert run(capsys, "unitary", "2*U")[:2] == (0, "false\n")

    code, out, _ = run(capsys, "membership", "P[1] + -1*P[2]", "--json")
    assert code == 0
    assert json.loads(out) == {
        "in_O2": True, "in_QT": True, "in_F2": True, "in_D2": True,
    }

    code, out, _ = run(capsys, "membership", "U")
    assert (code, out) == (
        0, "in_O2=false in_QT=true in_F2=false in_D2=false\n"
    )


def test_putnam_lines(capsys):
    code, out, _ = run(capsys, "putnam", "U")
    assert (code, out) == (0, "1\t1\n")
    code, out, _ = run(capsys, "putnam", "S[1] U^2 S*[1] + S[2] S*[2]")
    assert (code, out) == (0, "0\tP[2]\n4\tP[1]\n")


def test_factor_lines(capsys):
    code, out, _ = run(capsys, "factor", "S[1] S*[2] + S[2] S*[1]")
    assert code == 0
    assert out == "bd\tP[1] + P[2]\nv\tS[1] S*[2] + S[2] S*[1]\n"


def test_charge_element_and_diagram(capsys):
    code, out, _ = run(capsys, "charge", "U^5")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(
        capsys, "charge", '{"tplus": 0, "tminus": 0, "tau": [0], "v": [5]}'
    )
    assert (code, out) == (0, "5\n")


def test_diagram_reduce_render(capsys):
    code, out, _ = run(capsys, "diagram", "S[1] S*[2] + S[2] S*[1]")
    assert code == 0
    d = json.loads(out)
    assert d["tau"] == [1, 0] and d["v"] == [0, 0]

    # an unreduced identity folds back to the trivial diagram
    code, out, _ = run(capsys, "reduce", "S[1] S*[1] + S[2] S*[2]")
    assert code == 0
    assert json.loads(out) == {"tplus": 0, "tminus": 0, "tau": [0], "v": [0]}

    code, out, _ = run(capsys, "render", "S[1] S*[2] + S[2] S*[1]")
    assert code == 0
    assert out.startswith("graph") and "dashed" in out
    code, out, _ = run(
        capsys, "render", '{"tplus": 0, "tminus": 0, "tau": [0], "v": [0]}',
        "--format", "tikz",
    )
    assert code == 0
    assert "tikzpicture" in out


# ---------------------------------------------------------------- eval verb


def test_eval_phase_word(capsys):
    # Ad(U_z)(U) picks up the phase z
    code, out, _ = run(capsys, "eval", "Uz[1/4] U Uz*", "e_5")
    assert (code, out) == (0, "(1/4)*e_6\n")
    code, out, _ = run(capsys, "eval", "Uz[1/4] U Uz*", "e_5", "--json")
    assert code == 0
    assert json.loads(out) == {"index": 6, "phase": "1/4"}

    # rightmost letter acts first; S2* kills odd indices
    code, out, _ = run(capsys, "eval", "S2* S1", "3")
    assert (code, out) == (0, "zero\n")
    code, out, _ = run(capsys, "eval", "S2* S1", "3", "--json")
    assert (code, out) == (0, '"zero"\n')

    # the --z flag supplies the angle for bare Uz tokens
    code, out, _ = run(capsys, "eval", "Uz", "e_1", "--z", "1/2")
    assert (code, out) == (0, "(1/2)*e_1\n")


def test_eval_errors(capsys):
    # unknown token and missing angle are parse errors
    assert run(capsys, "eval", "Q", "e_0")[0] == 2
    assert run(capsys, "eval", "Uz", "e_0")[0] == 2
    assert run(capsys, "eval", "Uz[1/4] Uz[1/2]", "e_0")[0] == 2
    # a non-dyadic angle is a domain error
    code, _, err = run(capsys, "eval", "Uz[1/3]", "e_1")
    assert code == 1 and "dyadic" in err


@pytest.mark.parametrize("argv", [
    ["eval", "Uz[1/0]", "3"], ["eval", "Uz", "3", "--z", "1/0"],
    ["eval", "Uz[abc]", "3"], ["eval", "Uz", "3", "--z", "abc"],
    ["eval", "Uz", "3", "--z", ""], ["eval", "Uz[1e999999999]", "3"],
    ["eval", "Uz", "3", "--z", "1" * 5000]])
def test_eval_bad_angle_is_a_parse_error(capsys, argv):
    # a zero denominator used to escape as a ZeroDivisionError traceback,
    # and text Fraction refuses exited 1; an exponent is refused before
    # its power is built
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert one_line_error(err) and "bad angle" in err


def test_eval_angle_forms(capsys):
    for argv in (["Uz[3/4]", "3"], ["Uz", "3", "--z", "0.75"],
                 ["Uz[-1/4]", "3", "--z", " -1/4 "]):
        assert run(capsys, "eval", *argv)[:2] == (0, "(1/4)*e_3\n")


# ---------------------------------------------------------------- endomorphisms


def test_check_ext_verb(capsys):
    code, out, _ = run(
        capsys, "check-ext", "(2 3)", "--level", "2", "--template", "U+"
    )
    assert (code, out) == (0, "ext1=true ext2=true extendible=true\n")

    # passes the first equation but not the second
    code, out, _ = run(
        capsys, "check-ext", "(1 3 4)", "--level", "2", "--template", "M2:0",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"ext1": True, "ext2": False, "extendible": False}


def test_templates_verb(capsys):
    code, out, _ = run(capsys, "templates", "--level", "2")
    assert code == 0
    labels = [line.split("\t")[0] for line in out.splitlines()]
    assert labels == ["U+", "U-", "M1:0", "M2:0",
                      "AD:id", "AD*:id", "AD:(1 2)", "AD*:(1 2)"]


def test_construct_verb(capsys):
    code, out, _ = run(
        capsys, "construct", "--level", "2", "--template", "U+",
        "--perm", "(1 2)",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("u\t(1 3 4 2)\t")
    assert lines[1] == "u_tilde\tU^2"
    assert lines[2] == "verified\ttrue"

    code, out, _ = run(
        capsys, "construct", "--level", "3", "--template", "M1:0",
        "--sigma1", "(1 2)", "--json",
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_construct_refuses_options_of_another_kind(capsys):
    # --perm is read by U+/U- only, --sigma1/--sigma2 by M1:h/M2:h only
    for template, option in (("U+", "--sigma1"), ("U-", "--sigma2"),
                             ("M1:0", "--perm"), ("M2:1", "--perm"),
                             ("AD:id", "--perm"), ("AD*:(1 2)", "--sigma1"),
                             ("AD:(1 2)", "--sigma2")):
        code, out, err = run(capsys, "construct", "--level", "3",
                             "--template", template, option, "(1 2)")
        assert (code, out) == (2, ""), (template, option)
        assert one_line_error(err) and "parse error" in err and option in err


def test_verify_counts_refuses_a_negative_sample(capsys, monkeypatch):
    import qu2.endo

    def no_family(*args):
        raise AssertionError("a family was built")

    monkeypatch.setattr(qu2.endo, "_family", no_family)
    for level in ("2", "3"):
        code, out, err = run(capsys, "verify-counts", "--level", level,
                             "--sample", "-1")
        assert (code, out) == (2, ""), level
        assert one_line_error(err) and "parse error" in err and "--sample" in err


def test_over_long_numbers_are_one_line_parse_errors(capsys):
    nines = "9" * 5000
    for text in (f"U^{nines}", f"{nines}*U"):
        code, out, err = run(capsys, "normalize", text)
        assert (code, out) == (2, ""), text[:8]
        assert one_line_error(err) and "parse error" in err, err[:200]


def test_enumerate_verb(capsys):
    code, out, _ = run(capsys, "enumerate", "--level", "2", "--all-templates")
    assert code == 0
    assert out.splitlines()[-1] == "10 results"

    brute = run(capsys, "enumerate", "--level", "2", "--template", "U+")
    cons = run(capsys, "enumerate", "--level", "2", "--template", "U+",
               "--mode", "constructive")
    assert brute == cons
    assert brute[1].splitlines()[-1] == "2 results"


def test_probe_verb(capsys):
    code, out, _ = run(capsys, "probe", "id", "--level", "1", "--depth", "3")
    assert code == 0
    assert out == "stabilized_at=1\twitness=P[1] + P[2]\n"

    code, out, _ = run(capsys, "probe", "S[1] S*[2] + S[2] S*[1]",
                       "--depth", "2", "--json")
    assert code == 0
    assert json.loads(out)["stabilized_at"] == 1

    # a fixed point found early answers at a depth past the step budget
    with time_limit(5, "probe of a transposition at depth 12"):
        code, out, _ = run(capsys, "probe", "(1 2)", "--level", "1",
                           "--depth", "12")
    assert code == 0 and out.startswith("stabilized_at=1\t")


def test_cli_reaches_endo_through_its_public_template_calls():
    # the template menu and its families live in endo alone: the CLI
    # imports none of endo's private names or family builders
    tree = ast.parse(CLI_SOURCE.read_text())
    builders = {"PermUnitary", "make_u_p", "make_u_sigma", "make_inner_phi",
                "extend", "label_kind", "parse_template", "parse_cycles",
                "identity_perm"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, "endo"), (0, "qu2.endo")):
                imported.update(alias.name for alias in node.names)
            elif (node.level, node.module) in ((1, None), (0, "qu2")):
                assert "endo" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert "qu2.endo" not in {alias.name for alias in node.names}
    assert imported, "the CLI imports no endo name"
    assert not {name for name in imported if name.startswith("_")}
    assert not imported & builders


# ---------------------------------------------------------------- exit codes


def test_exit_codes(capsys):
    # parse error in an element expression
    code, _, err = run(capsys, "normalize", "S[3]")
    assert code == 2 and "parse error" in err
    # a cycle index that is not a number
    for argv, token in ((("check-ext", "(1 x)", "--level", "2", "--template",
                          "U+"), "(1 x)"),
                        (("construct", "--level", "3", "--template", "M1:1",
                          "--sigma1", "(1 x)"), "(1 x)")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert one_line_error(err) and "parse error" in err and token in err
    # brute force past the capacity bound
    code, _, err = run(capsys, "enumerate", "--level", "5", "--template", "U+")
    assert code == 1 and "tractable" in err
    # cycle notation without --level
    assert run(capsys, "check-ext", "(1 2)", "--template", "U+")[0] == 1
    # usage errors come from argparse
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_enumerate_needs_exactly_one_template_option(capsys):
    # --template and --all-templates are one required choice: neither or
    # both is a usage error
    for extra in ([], ["--template", "U+", "--all-templates"]):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--level", "3", *extra])
        assert exc.value.code == 2, extra
        out, err = capsys.readouterr()
        assert out == "" and "--template" in err and "--all-templates" in err


def test_template_verbs_need_level_2(capsys):
    # one k >= 2 rule for the menu, the counts and label templates
    for argv in (("verify-counts", "--level", "0"),
                 ("verify-counts", "--level", "1"),
                 ("templates", "--level", "1"),
                 ("check-ext", "id", "--level", "1", "--template", "U+"),
                 ("construct", "--level", "1", "--template", "U+")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert one_line_error(err) and "k >= 2" in err, (argv, err)
    # an element expression is not a label and keeps working at level 1
    code, out, _ = run(capsys, "check-ext", "S[1] S*[2] + S[2] S*[1]",
                       "--template", "U^-1")
    assert (code, out) == (0, "ext1=true ext2=true extendible=true\n")


def test_negative_level_names_the_level(capsys):
    code, out, err = run(capsys, "check-ext", "(1 2)", "--template", "U+",
                         "--level", "-1")
    assert (code, out) == (1, "")
    assert one_line_error(err) and "level" in err and "-1" in err


def test_templates_past_level_4_is_capacity_error(capsys):
    # the level-5 inner section has 2 * 16! entries; it must be refused
    # before any of it is built, not time out
    with time_limit(30, "templates --level 5"):
        code, out, err = run(capsys, "templates", "--level", "5")
    assert (code, out) == (1, "")
    assert one_line_error(err) and "level <= 4" in err


def test_family_past_capacity_is_refused(capsys):
    # U+ alone has 16! members at level 5; they must not be listed
    for argv in (("verify-counts", "--level", "5"),
                 ("enumerate", "--level", "5", "--mode", "constructive",
                  "--template", "U+")):
        with time_limit(20, " ".join(argv)):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert one_line_error(err) and "members" in err, (argv, err)


def test_enumerate_level4_brute(capsys):
    # one template at level 4 is searched; the whole menu, 80,648
    # templates, is refused before any of them is
    with time_limit(10, "brute enumerate of M1:1 at level 4"):
        code, out, _ = run(capsys, "enumerate", "--level", "4",
                           "--template", "M1:1")
    assert code == 0 and out.endswith("\n576 results\n")
    with time_limit(5, "brute enumerate of the level-4 menu"):
        code, out, err = run(capsys, "enumerate", "--level", "4",
                             "--all-templates", "--mode", "brute")
    assert (code, out) == (1, "")
    assert one_line_error(err) and "80648" in err and "tractable" in err


def test_enumerate_constructive_element_past_the_menu_level(capsys):
    # past level 4 the menu cannot be listed, but an element template's
    # kind is read off its charge: p U p* finds its one-member family,
    # and the charge-1 element p U, on no menu, is refused as such
    p = perm_unitary_from_cycles(4, "(1 5 3)(2 16)").element
    inner = element_str(p * u(1) * p.adjoint())
    with time_limit(10, "constructive enumerate of a level-5 element"):
        code, out, _ = run(capsys, "enumerate", "--level", "5", "--mode",
                           "constructive", "--template", inner)
        assert code == 0 and out.endswith("\n1 results\n")
        code, out, err = run(capsys, "enumerate", "--level", "5", "--mode",
                             "constructive", "--template",
                             element_str(p * u(1)))
    assert (code, out) == (1, "")
    assert one_line_error(err) and "no constructive family" in err


def test_enumerate_constructive_label_is_not_searched(capsys):
    # the label names its family; no eq scan over the 80,640 level-4
    # inner templates
    with time_limit(5, "constructive enumerate of an inner label"):
        code, out, _ = run(capsys, "enumerate", "--level", "4", "--mode",
                           "constructive", "--template",
                           "AD*:(1 8)(2 7)(3 6)(4 5)")
    assert code == 0
    pairs = [f"S[{a}{b}] S*[{a}{3 - b}]"
             for a in ("111", "112", "121", "122", "211", "212", "221", "222")
             for b in (1, 2)]
    assert out == ("AD*:(1 8)(2 7)(3 6)(4 5)\t"
                   "(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)(15 16)\t"
                   + " + ".join(pairs) + "\n1 results\n")


def test_enumerate_constructive_label_is_sized_before_its_element():
    # M1:16 at level 18 has a 2^17-term element; the label names a family
    # too large to list, refused before that element is built
    code, out, err = run_limited(("enumerate", "--level", "18", "--mode",
                                  "constructive", "--template", "M1:16"),
                                 5, 1500 << 20)
    assert (code, out, err) == (
        1, "", "qu2: error: the family has ((2^16)!)^2 members; at most "
               "100000 can be listed\n")


def test_enumerate_constructive_inner_label_at_level_18():
    # the inner member is an index product: no extension check on
    # 2^17-term elements before the one result is printed
    code, out, err = run_limited(("enumerate", "--level", "18", "--mode",
                                  "constructive", "--template", "AD:id"),
                                 6, 1500 << 20)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2 and lines[-1] == "1 results"
    assert lines[0].startswith("AD:id\tid\tP[") and lines[0].count(" + ") == (1 << 18) - 1


# the extension check makes no Element product, so these answer, though a
# product of their 2^13- or 2^17-term u S_i and template passes the
# 2^24 term-pair cap
CAP_CASES = [
    (("check-ext", "id", "--level", "14", "--template", "M1:12"), 5,
     "extendible=false"),
    (("construct", "--level", "14", "--template", "M1:12"), 5, "verified\ttrue"),
    (("check-ext", "id", "--level", "18", "--template", "U+"), 5,
     "extendible=false"),
    (("check-ext", "id", "--level", "18", "--template", "M1:16"), 8,
     "extendible=false"),
    (("check-ext", "id", "--level", "18", "--template", "AD*:id"), 8,
     "extendible=false"),
    (("check-ext", "id", "--level", "18", "--template", "AD:id"), 10,
     "extendible=true"),
    (("construct", "--level", "18", "--template", "AD:(1 2)"), 15,
     "verified\ttrue"),
]


@pytest.mark.parametrize("argv, seconds, verdict", CAP_CASES,
                         ids=[" ".join(argv) for argv, _s, _v in CAP_CASES])
def test_extension_check_past_the_term_pair_cap_answers(argv, seconds, verdict):
    code, out, err = run_limited(argv, seconds, 1500 << 20)
    assert (code, err) == (0, ""), (argv, err)
    assert out.splitlines()[-1].endswith(verdict), argv


def test_product_past_the_term_pair_cap_is_refused():
    # 4,097^2 term pairs, refused before the first is formed
    power_sum = " + ".join(["1", "U"] + [f"U^{n}" for n in range(2, 4097)])
    code, out, err = run_limited(("mul", power_sum, power_sum), 5, 1500 << 20)
    assert (code, out) == (1, ""), err
    assert one_line_error(err) and "2^24 term pairs" in err, err


# a 64-letter word: expanding every term to its depth would take 2^64 terms
DEEP = "12" * 20 + "1" * 10 + "2" * 14


def test_eq_deep_word(capsys):
    with time_limit(5, "eq with a 64-letter word"):
        code, out, _ = run(capsys, "eq", f"S[{DEEP}] S*[{DEEP}] + U",
                           f"U + P[{DEEP}]")
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, "eq", f"S[{DEEP}] S*[{DEEP}] + U",
                           f"U + 2*P[{DEEP}]")
        assert (code, out) == (0, "false\n")


def test_deep_word_predicates(capsys):
    shift = f"S[{DEEP}] U S*[{DEEP}] + 1 - P[{DEEP}]"
    with time_limit(5, "predicates with a 64-letter word"):
        code, out, _ = run(capsys, "membership", f"P[{'1' * 64}] + U")
        assert (code, out) == (0, "in_O2=false in_QT=true in_F2=false in_D2=false\n")
        assert run(capsys, "unitary", shift)[:2] == (0, "true\n")
        assert run(capsys, "unitary", f"P[{DEEP}] + U")[:2] == (0, "false\n")
        assert run(capsys, "charge", shift)[:2] == (0, "1\n")


def test_uniform_depth_past_capacity_is_refused(capsys):
    # these print the form with every beta at one depth: 2^40 terms and more
    for argv in (("normalize", "U", "--depth", "40"),
                 ("normalize", "U", "--depth", "1000000000")):
        with time_limit(5, " ".join(argv)):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert one_line_error(err) and "terms" in err, (argv, err)


def test_deep_word_structure(capsys):
    # putnam, factor, diagram and reduce read the refined form: the shift
    # along a 64-letter word has 65 terms there, one per leaf of the
    # caterpillar along w, though its uniform form has 2^64
    shift = f"S[{DEEP}] U S*[{DEEP}] + 1 - P[{DEEP}]"
    outs = {}
    for verb in ("putnam", "factor", "diagram", "reduce"):
        with time_limit(5, f"{verb} with a 64-letter word"):
            code, outs[verb], _ = run(capsys, verb, shift)
        assert code == 0, verb
    assert outs["putnam"].splitlines()[-1] == f"18446744073709551616\tP[{DEEP}]"
    bd, v = (line.split("\t")[1].split(" + ")
             for line in outs["factor"].splitlines())
    assert len(bd) == len(v) == 65 and f"S[{DEEP}] U S*[{DEEP}]" in bd
    # by hand: the caterpillar along w, a sibling leaf off each of its 64
    # letters; the siblings left of w are those of its letters 2
    tree = 0
    for letter in reversed(DEEP):
        tree = [tree, 0] if letter == "1" else [0, tree]
    left = DEEP.count("2")
    want = {"tplus": tree, "tminus": tree, "tau": list(range(65)),
            "v": [0] * left + [1] + [0] * (64 - left)}
    assert json.loads(outs["reduce"]) == want
    assert outs["diagram"] == outs["reduce"]


def test_structural_verbs_print_refined_words(capsys):
    # 1 - P[11] is split only towards 11: into P[12] + P[2], not into the
    # three depth-2 projections
    shift = "S[11] U S*[11] + 1 - P[11]"
    assert run(capsys, "putnam", shift)[:2] == (0, "0\tP[12] + P[2]\n4\tP[11]\n")
    assert run(capsys, "factor", shift)[:2] == (
        0, "bd\tS[11] U S*[11] + P[12] + P[2]\nv\tP[11] + P[12] + P[2]\n")
    assert run(capsys, "diagram", shift)[:2] == (
        0, '{"tplus": [[0, 0], 0], "tminus": [[0, 0], 0], '
           '"tau": [0, 1, 2], "v": [1, 0, 0]}\n')


def test_reduce_bad_json_exit_codes(capsys):
    # a non-integer in tau is a parse error ...
    code, _, err = run(capsys, "reduce",
                       '{"tplus":0,"tminus":0,"tau":["a"],"v":[0]}')
    assert code == 2 and one_line_error(err) and "parse error" in err
    # ... while a well-formed but invalid diagram is a domain error
    code, _, err = run(capsys, "reduce",
                       '{"tplus":0,"tminus":0,"tau":[1],"v":[0]}')
    assert code == 1 and one_line_error(err) and "permutation" in err


@pytest.mark.parametrize("verb", ["reduce", "charge", "render"])
@pytest.mark.parametrize("text", [
    '{"tplus":0,"tminus":0,"tau":[0],"v":[1.5]}',
    '{"tplus":0,"tminus":0,"tau":[0],"v":[true]}',
    '{"tplus":0,"tminus":0,"tau":[0.9],"v":[0]}',
    '{"tplus":false,"tminus":0,"tau":[0],"v":[0]}',
])
def test_diagram_json_non_integers_are_parse_errors(capsys, verb, text):
    # once read as v = 1, v = 1, tau = 0 and a leaf, with exit 0
    code, out, err = run(capsys, verb, text)
    assert (code, out) == (2, "") and one_line_error(err)
    assert "parse error" in err and ("JSON integer" in err or "tree node" in err)


def test_diagram_json_missing_field_is_named(capsys):
    assert run(capsys, "render", '{"tplus": 0}') == (
        2, "", "qu2: parse error: bad diagram JSON: missing field 'tminus'\n")
    code, _, err = run(capsys, "reduce", '{"tplus": 0, "tminus": 0, "tau": [0]}')
    assert code == 2 and err.endswith("missing field 'v'\n")


def _caterpillar_json(depth):
    # written out by hand: json.dumps would itself recurse once per level
    tree = "[" * depth + "0" + ", 0]" * depth
    return (f'{{"tplus": {tree}, "tminus": {tree}, '
            f'"tau": {list(range(depth + 1))}, "v": {[0] * (depth + 1)}}}')


@pytest.mark.parametrize("verb", ["reduce", "charge", "render"])
def test_deep_diagram_json_is_parse_error(capsys, verb):
    # 990 levels overflow the JSON decoder, 600 pass it but not the tree cap
    for depth in (990, 600):
        code, out, err = run(capsys, verb, _caterpillar_json(depth))
        assert (code, out) == (2, ""), (verb, depth)
        assert one_line_error(err) and "parse error" in err and "deep" in err


def test_diagram_json_at_depth_cap(capsys):
    text = _caterpillar_json(512)
    code, out, _ = run(capsys, "reduce", text)
    assert (code, out) == (0, '{"tplus": 0, "tminus": 0, "tau": [0], "v": [0]}\n')
    code, out, _ = run(capsys, "charge", text)
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "render", text)
    assert code == 0 and out.count("dashed") == 513


def _deep_shift(n):
    w = "1" * n
    return f"S[{w}] U S*[{w}] + 1 - P[{w}]"


@pytest.mark.parametrize("verb", ["diagram", "render", "reduce"])
def test_deep_element_diagram_is_capacity_error(capsys, verb):
    # past the cap that diagram JSON input has, the JSON encoder and
    # render's layout recurse too deep and reduce could not read it back
    for n in (600, 1200):
        with time_limit(5, f"{verb} with a {n}-letter word"):
            code, out, err = run(capsys, verb, _deep_shift(n))
        assert (code, out) == (1, ""), (verb, n)
        assert one_line_error(err) and "deeper than 512" in err, (verb, err)


def test_element_diagram_at_depth_cap(capsys):
    with time_limit(5, "diagram and reduce with a 512-letter word"):
        code, text, _ = run(capsys, "diagram", _deep_shift(512))
        assert code == 0
        code, out, _ = run(capsys, "reduce", text.strip())
    assert (code, out) == (0, text)


def test_probe_past_budget_is_capacity_error(capsys):
    with time_limit(10, "probe of a level-2 4-cycle at depth 18"):
        code, out, err = run(capsys, "probe", "(1 3 4 2)", "--level", "2",
                             "--depth", "18")
    assert (code, out) == (1, "")
    assert one_line_error(err) and "probe step 18" in err


def test_probe_reaches_level_18(capsys):
    # the tower runs on index tuples, so depth 17 from level 2 is cheap
    with time_limit(5, "probe of a level-2 4-cycle at depth 17"):
        code, out, _ = run(capsys, "probe", "(1 3 4 2)", "--level", "2",
                           "--depth", "17")
    assert (code, out) == (0, "inconclusive (depth 17)\n")


# each of these once listed 2^26 words or more, or built every M*:h of a
# level-30 menu, before any capacity check; the child's 1.5 GB address
# space keeps such a run from exhausting the machine
@pytest.mark.parametrize("argv", [
    ("construct", "--level", "30", "--template", "U+"),
    ("construct", "--level", "26", "--template", "M1:0"),
    ("probe", "id", "--level", "27"),
    ("check-ext", "id", "--level", "27", "--template", "U+"),
    ("enumerate", "--level", "30", "--mode", "constructive",
     "--template", "M1:27"),
    ("templates", "--level", "30"),
])
def test_huge_level_is_refused_before_listing(argv):
    code, out, err = run_limited(argv, 5, 1500 << 20)
    assert (code, out) == (1, ""), (argv, err)
    assert one_line_error(err) and "level" in err, (argv, err)


# counts past 4,300 digits once failed Python's integer formatting
@pytest.mark.parametrize("argv", [
    ("templates", "--level", "10"),
    ("templates", "--level", "12"),
    ("enumerate", "--level", "12", "--all-templates"),
    ("enumerate", "--level", "12", "--mode", "constructive", "--template", "U+"),
    ("enumerate", "--level", "12", "--mode", "constructive",
     "--template", "M1:0"),
    ("verify-counts", "--level", "12"),
])
def test_huge_counts_are_named_by_closed_form(argv):
    code, out, err = run_limited(argv, 5, 1500 << 20)
    assert (code, out) == (1, ""), (argv, err)
    assert one_line_error(err) and "!" in err and len(err) < 200, (argv, err)


def test_level5_capacity_messages(capsys):
    for argv, message in (
            (("templates", "--level", "5"),
             "the level-5 menu has 41845579776010 templates; the full menu "
             "needs level <= 4"),
            (("enumerate", "--level", "5", "--all-templates"),
             "brute force over all 41845579776010 level-5 templates is not "
             "tractable; search one template at a time, or level <= 3"),
            (("enumerate", "--level", "5", "--mode", "constructive",
              "--template", "U+"),
             "the family has 20922789888000 members; at most 100000 can be "
             "listed"),
            (("enumerate", "--level", "5", "--mode", "constructive",
              "--template", "M2:3"),
             "the family has 1625702400 members; at most 100000 can be "
             "listed")):
        with time_limit(10, " ".join(argv)):
            assert run(capsys, *argv) == (1, "", f"qu2: error: {message}\n")


# ---------------------------------------------------------------- suites


def test_verify_table_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "verify-table", str(tmp_path / "missing.tsv"))
    assert (code, out) == (1, "")
    assert one_line_error(err) and "missing.tsv" in err


@pytest.mark.parametrize("text", ["", "# comments only\n\n"])
def test_verify_table_refuses_a_table_without_rows(capsys, tmp_path, text):
    # an empty table would verify nothing and still report success
    empty = tmp_path / "empty.tsv"
    empty.write_text(text)
    assert run(capsys, "verify-table", str(empty)) == (
        1, "", f"qu2: error: table {empty} has no rows\n")


def test_verify_table_packaged(capsys):
    code, out, _ = run(capsys, "verify-table")
    assert code == 0
    assert out.splitlines()[-1] == "40/40 verified"


def test_verify_table_path_and_env(capsys, tmp_path, monkeypatch):
    # two-row fixture: one good row, one with a corrupted cycle column
    from qu2.cli import _table_path

    with open(_table_path(None)) as f:
        good = f.readline().rstrip("\n")
    cycles, elem, tilde = good.split("\t")
    bad = "\t".join(["(1 2)", elem, tilde])
    fixture = tmp_path / "rows.tsv"
    fixture.write_text(f"# comment line\n{good}\n{bad}\n")

    code, out, _ = run(capsys, "verify-table", str(fixture))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "1/2 verified"
    assert lines[0].startswith("row 2:")

    # the environment variable supplies the default path
    monkeypatch.setenv("QU2_TABLE", str(fixture))
    code, out, _ = run(capsys, "verify-table", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["verified"]) == (2, 1)


def test_verify_counts_level2(capsys):
    code, out, _ = run(capsys, "verify-counts", "--level", "2")
    assert code == 0
    assert out.splitlines()[-1] == (
        "verify-counts level=2 templates_ok=4/4 checks=6 result=PASS"
    )


def test_verify_counts_level4(capsys):
    # each mixed family is the whole level-4 classification of its template
    code, out, _ = run(capsys, "verify-counts", "--level", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[2:8] == [f"M{v}:{h}\tcount=576\texpected=576\tok"
                          for h in range(3) for v in (1, 2)]
    assert lines[-1] == (
        "verify-counts level=4 templates_ok=8/8 checks=5456 result=PASS"
    )


def test_verify_counts_level3_json(capsys):
    code, out, _ = run(capsys, "verify-counts", "--level", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    by_label = {t["label"]: t["count"] for t in payload["templates"]}
    assert by_label == {"U+": 24, "U-": 24,
                       "M1:0": 4, "M2:0": 4, "M1:1": 4, "M2:1": 4}


# ---------------------------------------------------------------- fuzzing

_CYCLES = st.one_of(
    st.sampled_from(["id", "()", "(1 2)", "(1 3 4)", "(1 2)(3 4)", "(1 1)",
                     "(1 9)", "(", "(a b)", "(0 1)", "(12)", ""]),
    st.lists(st.integers(0, 9), min_size=2, max_size=4).map(
        lambda idx: "(" + " ".join(map(str, idx)) + ")"))
_ANGLES = st.one_of(
    st.sampled_from(["1/4", "1/0", "abc", "0.5", "-3/8", "1/3", "", "1e3"]),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)))
_LEVELS = st.integers(-1, 3).map(str)
_TEMPLATES = st.sampled_from(["U+", "U-", "M1:0", "M2:1", "M1:5", "AD:(1 2)",
                              "AD*:id", "AD:(1 9)", "U^4", "S[1]", "U^2 + U",
                              "X"])


@st.composite
def _eval_argv(draw):
    tokens = draw(st.lists(st.tuples(
        st.sampled_from(["U", "Uz", "S1", "S2", "Q"]), st.booleans(),
        st.one_of(st.none(), _ANGLES)), max_size=4))
    word = " ".join(base + ("*" if star else "") +
                    ("" if angle is None else f"[{angle}]")
                    for base, star, angle in tokens)
    argv = ["eval", word, draw(st.sampled_from(["3", "e_-2", "e_x", "0"]))]
    if draw(st.booleans()):
        argv += ["--z", draw(_ANGLES)]
    return argv


# element text: 1 to 4 terms, each an optional sign and small p/q, then up
# to 3 factors with words of up to 6 letters and charges in [-8, 8]
_ELEMENT_WORDS = st.text("12", max_size=6).map(lambda w: w or "e")
_ELEMENT_FACTORS = st.one_of(
    st.builds("{}[{}]".format, st.sampled_from(["S", "S*", "P"]),
              _ELEMENT_WORDS),
    st.integers(-8, 8).map("U^{}".format),
    st.sampled_from(["U", "U*", "1"]))
_ELEMENT_TERMS = st.tuples(
    st.sampled_from(["", "-"]),
    st.one_of(st.just(""), st.builds("{}/{}*".format, st.integers(0, 9),
                                     st.integers(0, 4))),
    st.lists(_ELEMENT_FACTORS, min_size=1, max_size=3))
_ELEMENTS = st.lists(_ELEMENT_TERMS, min_size=1, max_size=4).map(
    lambda terms: " + ".join(sign + coeff + " ".join(factors)
                             for sign, coeff, factors in terms))
_ELEMENT_ARGV = st.one_of(
    st.tuples(_ELEMENTS, _ELEMENTS).map(lambda a: ["eq", *a]),
    st.tuples(_ELEMENTS, _ELEMENTS).map(lambda a: ["eq", *a, "--explain"]),
    st.tuples(_ELEMENTS, _ELEMENTS).map(lambda a: ["mul", *a]),
    _ELEMENTS.map(lambda e: ["unitary", e]))

# diagram JSON: two trees of 1 to 4 leaves, tau and v.  A clean draw has the
# integer 0 at every leaf and ints in v and tau (a permutation, or not); any
# other draws its leaves from 0, false, 0.0 and nested pairs, and its
# entries from every JSON type and from strings
_JSON_VALUES = st.one_of(
    st.integers(-3, 3), st.floats(), st.booleans(), st.none(),
    st.integers(-3, 3).map(str), st.sampled_from(["a", "", "1.5", "1e3"]))


@st.composite
def _json_tree(draw, leaves, leaf):
    if leaves == 1:
        return draw(leaf)
    left = draw(st.integers(1, leaves - 1))
    return [draw(_json_tree(left, leaf)), draw(_json_tree(leaves - left, leaf))]


@st.composite
def _diagram_argv(draw):
    n = draw(st.integers(1, 4))
    clean = draw(st.booleans())
    leaf = st.just(0) if clean else st.sampled_from([0, False, 0.0, [0, 0]])
    entry = st.integers(-3, 3) if clean else _JSON_VALUES
    tau = list(draw(st.permutations(range(n))))
    if draw(st.booleans()):
        tau = [draw(st.one_of(st.just(t), entry)) for t in tau]
    obj = {"tplus": draw(_json_tree(n, leaf)),
           "tminus": draw(_json_tree(n, leaf)),
           "tau": tau, "v": [draw(entry) for _ in range(n)]}
    return [draw(st.sampled_from(["reduce", "charge", "render"])),
            json.dumps(obj)]


def _integral_diagram(text):
    """True iff diagram JSON has the integer 0 at every leaf, and in tau and
    v JSON integers or strings."""
    obj = json.loads(text)

    def tree(t):
        return (type(t) is int and t == 0) or (
            type(t) is list and len(t) == 2 and all(map(tree, t)))

    return tree(obj["tplus"]) and tree(obj["tminus"]) and all(
        type(x) in (int, str) for x in obj["tau"] + obj["v"])


_ARGV = st.one_of(
    _eval_argv(),
    _ELEMENT_ARGV,
    _diagram_argv(),
    st.tuples(_CYCLES, _LEVELS, _TEMPLATES).map(
        lambda a: ["check-ext", a[0], "--level", a[1], "--template", a[2]]),
    st.tuples(_LEVELS, _TEMPLATES, st.sampled_from(["--perm", "--sigma1"]),
              _CYCLES).map(
        lambda a: ["construct", "--level", a[0], "--template", a[1], a[2],
                   a[3]]),
    st.tuples(_LEVELS, st.one_of(_TEMPLATES.map(lambda t: ["--template", t]),
                                 st.just(["--all-templates"])),
              st.sampled_from(["brute", "constructive"])).map(
        lambda a: ["enumerate", "--level", a[0], *a[1], "--mode", a[2]]),
    st.tuples(_CYCLES, _LEVELS, st.integers(-1, 5).map(str)).map(
        lambda a: ["probe", a[0], "--level", a[1], "--depth", a[2]]),
    st.tuples(st.sampled_from(["templates", "verify-counts"]), _LEVELS).map(
        lambda a: [a[0], "--level", a[1]]))


@settings(deadline=None, max_examples=300)
@example(["eval", "Uz[1/0]", "3"])
@example(["eval", "Uz", "3", "--z", "1/0"])
@example(["reduce", '{"tplus": 0, "tminus": 0, "tau": [0], "v": [1.5]}'])
@example(["charge", '{"tplus": false, "tminus": 0, "tau": [0], "v": [0]}'])
@example(["render", '{"tplus": 0, "tminus": 0, "tau": [true], "v": [0]}'])
@given(_ARGV)
def test_fuzzed_argv_exits_cleanly(argv):
    # every run ends in exit 0, 1 or 2 with no traceback, quickly
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with time_limit(10, " ".join(argv)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and argv[0] in ("reduce", "charge", "render"):
        # a diagram is read only from integers
        assert _integral_diagram(argv[1]), argv

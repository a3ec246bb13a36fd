"""What a cold start loads, checked in fresh interpreters.

`import qu2` loads no layer, `import qu2.cli` loads only the element layer,
and each verb imports the layers it runs.  The package's names resolve
lazily to the same objects its home modules hold.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import SRC, run_limited
from qu2.cli import main

# the package's export list, by home module
EXPORTS = {
    "errors": ["CapacityError", "DomainError", "ParseError"],
    "words": ["Word", "all_words", "decode", "flip", "is_partition",
              "is_prefix", "lex_index", "parse_word", "word_str"],
    "monomial": ["Monomial", "ONE", "adjoint_mono", "expand_right",
                 "mono_mul", "mono_str", "parse_mono", "push_u_through",
                 "u_pow"],
    "element": ["Element", "Membership", "bd_v_factor", "element_str", "eq",
                "flip_flop", "from_json", "in_w", "is_unitary", "membership",
                "normalize", "one", "parse_element", "phi", "proj",
                "putnam_form", "s", "s_star", "to_json", "total_charge", "u",
                "zero"],
    "canrep": ["BasisVector", "DecoratedPermutative", "Zero", "apply_basis",
               "dp_split", "mono_image", "phase_apply", "semantic_eq"],
    "wgroup": ["Diagram", "charge", "diagram_from_json", "diagram_to_json",
               "from_element", "group_inv", "group_mul", "identity_diagram",
               "leaves", "reduce", "render", "to_element", "tree_from_words"],
    "endo": ["ExtendedEndo", "PermUnitary", "ProbeResult",
             "automorphism_probe", "check_extension", "check_extension_parts",
             "constructive_family", "enumerate_extendible", "enumerate_menu",
             "enumerate_u_p", "enumerate_u_sigma", "extend", "lambda_apply",
             "make_inner_phi", "make_u_p", "make_u_sigma", "mixed_template",
             "parse_cycles", "parse_template", "perm_to_cycles",
             "perm_unitary", "perm_unitary_from_cycles",
             "perm_unitary_from_element", "template_labels",
             "u_templates_labeled"],
}

ELEMENT_LAYER = ["qu2", "qu2.element", "qu2.errors", "qu2.monomial",
                 "qu2.words"]


def fresh(code):
    """Run `code` in a new interpreter with ./src on the path; its last
    stdout line, parsed as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("import json, sys; "
          "print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'qu2' or m.startswith('qu2.'))))")


def test_import_qu2_loads_no_layer():
    assert fresh("import qu2; " + LOADED) == ["qu2"]


def test_import_cli_loads_only_the_element_layer():
    assert fresh("import qu2.cli; " + LOADED) == sorted(ELEMENT_LAYER + ["qu2.cli"])


def test_template_menu_loads_no_wgroup_or_canrep():
    loaded = fresh("from qu2 import element, endo; "
                   "element.u(4); endo.mixed_template(3, 0, 1); " + LOADED)
    assert loaded == sorted(ELEMENT_LAYER + ["qu2.endo"])


def test_exports_are_their_home_objects():
    pairs = [[name, module] for module, names in EXPORTS.items()
             for name in names]
    assert len(pairs) == 89
    code = ("import importlib, json, qu2\n"
            f"pairs = {pairs!r}\n"
            "bad = [n for n, m in pairs if getattr(qu2, n) is not "
            "getattr(importlib.import_module('qu2.' + m), n)]\n"
            "print(json.dumps([bad, sorted(qu2.__all__), "
            "sorted(set(qu2.__all__) - set(dir(qu2)))]))")
    bad, exported, undirred = fresh(code)
    assert bad == []
    assert exported == sorted(name for name, _module in pairs)
    assert undirred == []


def test_unknown_names_are_attribute_errors():
    code = ("import json, qu2; "
            "print(json.dumps([hasattr(qu2, 'nope'), hasattr(qu2, 'canrep')]))")
    # a submodule is an attribute only once it is imported
    assert fresh(code) == [False, False]


def test_from_qu2_import_submodule():
    code = ("import json; from qu2 import canrep; "
            "print(json.dumps(canrep.__name__))")
    assert fresh(code) == "qu2.canrep"


def test_star_import_binds_every_export():
    code = ("import json, qu2; ns = {}; exec('from qu2 import *', ns); "
            "print(json.dumps([n for n in qu2.__all__ if n not in ns]))")
    assert fresh(code) == []


# one run per verb in a fresh interpreter: a verb that uses a layer it does
# not import fails here, though it passes once other tests loaded the layer
COLD_RUNS = [
    ["normalize", "U", "--depth", "1"],
    ["mul", "S[1]", "U", "S*[1]"],
    ["eq", "U", "S[1] S*[2] + S[2] U^2 S*[1]", "--explain"],
    ["adjoint", "S[1] U S*[2]"],
    ["unitary", "U"],
    ["membership", "U"],
    ["putnam", "S[1] S*[1] + S[2] U S*[2]"],
    ["factor", "S[1] S*[2] + S[2] U S*[1]"],
    ["charge", "U^5"],
    ["charge", '{"tplus": [0, 0], "tminus": [0, 0], "tau": [1, 0], "v": [1, 0]}'],
    ["eval", "Uz[1/4] U Uz*", "e_5"],
    ["diagram", "S[1] U S*[2] + S[2] S*[1]"],
    ["reduce", "S[1] S*[1] + S[2] S*[2]"],
    ["render", '{"tplus": 0, "tminus": 0, "tau": [0], "v": [0]}',
     "--format", "tikz"],
    ["render", "S[1] U S*[2] + S[2] S*[1]"],
    ["check-ext", "(2 3)", "--level", "2", "--template", "U+"],
    ["check-ext", "(1 3 4)", "--level", "2", "--template",
     "P[2] U^2 + P[1] U^-2"],
    ["templates", "--level", "2"],
    ["construct", "--level", "2", "--template", "U+", "--perm", "(1 2)"],
    ["construct", "--level", "3", "--template", "M1:0", "--sigma1", "(1 2)"],
    ["construct", "--level", "3", "--template", "AD*:(1 2)"],
    ["enumerate", "--level", "2", "--all-templates"],
    ["enumerate", "--level", "3", "--mode", "constructive", "--template", "U+"],
    ["enumerate", "--level", "2", "--mode", "constructive", "--template",
     "S[1] S*[2] + S[2] U S*[1]"],
    ["probe", "(1 2)", "--level", "1", "--depth", "4"],
    ["verify-counts", "--level", "2"],
    ["verify-table"],
]


@pytest.mark.parametrize("argv", COLD_RUNS, ids=lambda argv: " ".join(argv))
def test_cold_verb_matches_in_process(argv, capsys, monkeypatch):
    monkeypatch.delenv("QU2_TABLE", raising=False)
    code = main(list(argv))
    out, _err = capsys.readouterr()
    assert run_limited(argv, 60, 1500 << 20)[:2] == (code, out)
    assert code == 0

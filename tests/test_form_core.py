"""The one validated form core: the canonical form is the coprime wheel on
the first r primes with h1 = 1, and every form kind has a frozen JSON shape."""

import ast
import re
from pathlib import Path

import pytest

from primewheel import (
    CanonicalWheelForm,
    CoprimeWheelForm,
    PrimeBasis,
    RawWheelForm,
    build_canonical,
    build_coprime_wheel,
    build_raw,
    form_from_json,
    form_to_json,
)

README = Path(__file__).resolve().parents[1] / "README.md"

CANONICAL_R3 = {
    "r": 3,
    "primorial": "30",
    "coeffs": {"2": "10", "3": "6"},
    "constant": "15",
    "convention": "plus-h",
}
RAW_R3 = {
    "r": 3,
    "primorial": "30",
    "coeffs": {"2": "50", "3": "24"},
    "constant": "-1",
    "convention": "minus-h",
    "representatives": {"2": ["1", "1"], "3": ["5", "4"]},
}
COPRIME_PINNED = {
    "moduli": ["4", "9", "5"],
    "period": "180",
    "coeffs": {"2": "100", "3": "36"},
    "constant": "90",
    "pinned_h1": 2,
    "convention": "plus-h",
}
COPRIME_FREE = {
    "moduli": ["4", "9", "5"],
    "period": "180",
    "coeffs": {"1": "45", "2": "100", "3": "36"},
    "constant": "0",
    "pinned_h1": None,
    "convention": "plus-h",
}


def _shapes():
    basis = PrimeBasis.first(3)
    return [
        (build_canonical(basis), CANONICAL_R3),
        (build_raw(basis), RAW_R3),
        (build_coprime_wheel([4, 9, 5], h1=2), COPRIME_PINNED),
        (build_coprime_wheel([4, 9, 5]), COPRIME_FREE),
    ]


@pytest.mark.parametrize("index", range(4), ids=["canonical", "raw", "pinned", "free"])
def test_form_to_json_shape_is_frozen(index):
    form, shape = _shapes()[index]
    assert form_to_json(form) == shape
    assert form_from_json(shape) == form
    assert type(form_from_json(shape)) is type(form)


@pytest.mark.parametrize("index", range(4), ids=["canonical", "raw", "pinned", "free"])
def test_form_from_json_rejects_tampered_blobs(index):
    _, shape = _shapes()[index]
    bumped = str(int(shape["constant"]) + 1)
    with pytest.raises(ValueError):
        form_from_json({**shape, "constant": bumped})
    coeffs = dict(shape["coeffs"])
    first = min(coeffs)
    coeffs[first] = str(int(coeffs[first]) + 1)
    with pytest.raises(ValueError):
        form_from_json({**shape, "coeffs": coeffs})


@pytest.mark.parametrize("index", range(4), ids=["canonical", "raw", "pinned", "free"])
def test_every_form_answers_the_same_surface(index):
    form, shape = _shapes()[index]
    assert form.free_indices == tuple(map(int, shape["coeffs"]))
    assert form.coeffs == tuple(map(int, shape["coeffs"].values()))
    assert form.coeff_map == dict(zip(form.free_indices, form.coeffs))
    assert tuple(map(form.coeff, form.free_indices)) == form.coeffs
    assert form.period == int(shape.get("primorial") or shape["period"])
    assert form.constant == int(shape["constant"])


@pytest.mark.parametrize(
    "blob, message",
    [
        ({**RAW_R3, "r": 1, "coeffs": {}, "representatives": {}},
         "raw forms need at least two basis primes"),
        ({**RAW_R3, "representatives": {"2": ["1", "1"], "3": ["5", "5"]}},
         "stored solution for index 3 fails its unit equation"),
        ({**CANONICAL_R3, "constant": "-1"}, r"constant outside \[0, period\)"),
        ({**COPRIME_PINNED, "constant": "270"}, r"constant outside \[0, period\)"),
    ],
    ids=["raw-r1", "raw-representative", "canonical-constant", "pinned-constant"],
)
def test_form_from_json_names_the_tampered_parameter(blob, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        form_from_json(blob)


def test_raw_form_needs_one_solution_per_index():
    with pytest.raises(ValueError, match=r"^need one solution per index 2\.\.r$"):
        RawWheelForm(PrimeBasis.first(3), ((1, 1),))


def test_form_to_json_refuses_what_is_not_a_form():
    with pytest.raises(TypeError, match="^not a wheel form: PrimeBasis$"):
        form_to_json(PrimeBasis.first(3))


@pytest.mark.parametrize("r", range(1, 9))
def test_canonical_form_is_the_coprime_wheel_on_the_first_primes(r):
    basis = PrimeBasis.first(r)
    form = build_canonical(basis)
    wheel = build_coprime_wheel(basis.primes, h1=1)
    assert isinstance(form, CoprimeWheelForm)
    assert form.coeffs == wheel.coeffs
    assert form.constant == wheel.constant == basis.primorial // 2
    assert form.coeff_map == wheel.coeff_map
    assert form.free_indices == wheel.free_indices
    assert form.residue_classes() == wheel.residue_classes()
    assert form.basis.r == r and form.basis == basis
    # Equal coefficients, distinct kinds: JSON shapes and cache keys stay apart.
    assert form != wheel and wheel != form
    assert form_to_json(form) != form_to_json(wheel)


def test_canonical_form_keeps_its_constructor_signature():
    basis = PrimeBasis.first(3)
    form = CanonicalWheelForm(basis)
    assert form == CanonicalWheelForm(basis=basis) == build_canonical(basis)
    assert form.basis is basis and form.free_indices == (2, 3) and form.pinned_h1 == 1


def _out_of_range_cases():
    basis = PrimeBasis.first(3)
    raw = build_raw(basis)
    yield "raw coeff", raw.coeff, (0, 1, 4, -1), "2..3"
    yield "canonical", build_canonical(basis).coeff, (0, 1, 4, -1), "2..3"
    yield "pinned", build_coprime_wheel([4, 9, 5], h1=2).coeff, (0, 1, 4, -1), "2..3"
    yield "free", build_coprime_wheel([4, 9, 5]).coeff, (0, 4, -1), "1..3"
    yield "r = 1", build_canonical(PrimeBasis.first(1)).coeff, (0, 1, 2), "none"


@pytest.mark.parametrize(
    "lookup, bad, valid", [case[1:] for case in _out_of_range_cases()],
    ids=[case[0] for case in _out_of_range_cases()],
)
def test_out_of_range_indices_raise_naming_the_variable(lookup, bad, valid):
    for j in bad:
        with pytest.raises(ValueError, match=rf"\bh{j}\b.*\b{re.escape(valid)}$"):
            lookup(j)


def _readme_block(n: int) -> str:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[n]


def test_readme_library_example_values():
    """Every `# value` comment in README's library example is what the code gives.

    A comment belongs to the expression statement it ends, or to the one
    just above it when it stands on a line of its own.
    """
    block = _readme_block(0)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if not comment and node.end_lineno < len(lines):
            comment = lines[node.end_lineno].strip().removeprefix("#").strip()
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert got == eval(comment), ast.unparse(node)
        checked += 1
    assert checked == 7


def test_readme_json_shape_matches_the_canonical_form():
    shape = eval(_readme_block(1))
    assert shape == CANONICAL_R3 == form_to_json(build_canonical(PrimeBasis.first(3)))


@pytest.mark.parametrize(
    "blob,key",
    [
        ({"r": 3, "coeffs": {"2": "10"}, "constant": "15"}, "3"),
        ({k: v for k, v in CANONICAL_R3.items() if k != "constant"}, "constant"),
        ({k: v for k, v in RAW_R3.items() if k != "representatives"}, "representatives"),
        ({**COPRIME_FREE, "coeffs": {"2": "100", "3": "36"}}, "1"),
    ],
    ids=["canonical-coeff", "canonical-constant", "raw-representatives", "free-coeff"],
)
def test_form_from_json_names_a_missing_key(blob, key):
    with pytest.raises(ValueError, match=f"missing the key '{key}'"):
        form_from_json(blob)

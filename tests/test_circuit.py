"""Circuit text format: parser, renderer, validation, gate census."""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from cnq import (
    Anf,
    BadRootError,
    Circuit,
    CnqError,
    Gate,
    Line,
    ParseError,
    SelfControlError,
    UndeclaredLineError,
    ZeroPowerError,
)

from cnq.circuit import MAX_ROOT, _gate_problems

from conftest import fixture_path, load

FIGS = ["fig1", "fig2", "fig3", "fig4", "fig4_pre", "fig5", "fig6"]


# -- parsing -------------------------------------------------------------------


def test_parse_lines_and_roles(fig2):
    assert fig2.line_names == ("a", "b", "c", "t")
    assert fig2.target_names() == ("t",)
    assert fig2.line("a").role == "control"
    assert fig2.line("t").role == "target"
    with pytest.raises(UndeclaredLineError):
        fig2.line("z")


def test_parse_comments_and_blank_lines():
    c = Circuit.parse(
        """
        # full-line comment
        line a
        line t target   # trailing comment
        cnot a t
        """
    )
    assert len(c.gates) == 1
    assert c.gates[0] == Gate.make(1, 1, ("a",), "t")


def test_parse_gate_statements():
    c = Circuit.parse(
        "line a\nline b\nline t target\n"
        "not a\ncnot a b\nccx a b t\n"
        "v a -> t\nv* a b -> t\nw a -> t\nw* a -> t\n"
        "q k=8 p=3 a -> t\nq k=2 p=1 -> t\n"
    )
    ks = [(g.k, g.p, g.controls) for g in c.gates]
    assert ks == [
        (1, 1, ()),
        (1, 1, ("a",)),
        (1, 1, ("a", "b")),
        (2, 1, ("a",)),
        (2, 3, ("a", "b")),
        (4, 1, ("a",)),
        (4, 7, ("a",)),
        (8, 3, ("a",)),
        (2, 1, ()),
    ]


def test_parse_spec_expression(fig2):
    assert str(fig2.specs["t"]) == "t ^ a&b ^ b&c"


@pytest.mark.parametrize("name", FIGS)
def test_fixtures_round_trip(name):
    c = load(name)
    assert Circuit.parse(str(c)) == c
    assert c.validate() == []


@pytest.mark.parametrize(
    "text,err,loc",
    [
        ("", ParseError, (1, 1)),
        ("line", ParseError, (1, 1)),
        ("line 2x", ParseError, (1, 6)),
        ("line a\nline a", ParseError, (2, 6)),
        ("line a\nline b ancilla", ParseError, (2, 8)),
        ("line a\nfrobnicate a", ParseError, (2, 1)),
        ("line a\ncnot a b", UndeclaredLineError, (2, 8)),
        ("line a\nv b -> a", UndeclaredLineError, (2, 3)),
        ("line a\nline t target\nq k=3 p=1 a -> t", BadRootError, (3, 3)),
        ("line a\nline t target\nq k=2 p=4 a -> t", ZeroPowerError, (3, 7)),
        ("line a\nline t target\nv t -> t", SelfControlError, (3, 3)),
        ("line a\nline t target\nccx a a t", ParseError, (3, 5)),
        ("line a\nline t target\nq k=2 a -> t", ParseError, (3, 1)),
        ("line a\nline t target\nv a t", ParseError, (3, 1)),
        ("line t target\nspec t", ParseError, (2, 1)),
        ("line a\nline t target\nspec a = a", ParseError, (3, 6)),
        ("line t target\nspec t = t ^ q", UndeclaredLineError, (2, 14)),
        ("line t target\nspec t = t\nspec t = 0", ParseError, (3, 6)),
        ("line t target\nspec t = t ^^ 1", ParseError, (2, 13)),
        pytest.param(
            "line t target\nspec t = " + "(" * 3000 + "t" + ")" * 3000,
            ParseError,
            (2, 9),
            id="spec-nested-3000-deep",
        ),
        ("line a\nline t target\nspec t = t ^ (a & q)", UndeclaredLineError, (3, 19)),
        # the name's problem comes before the malformed expression
        ("line a\nspec a = (", ParseError, (2, 6)),
    ],
)
def test_parse_errors_carry_location(text, err, loc):
    with pytest.raises(err) as e:
        Circuit.parse(text)
    line, col = loc
    assert e.value.line == line
    if col is not None:
        assert e.value.col == col


_NAME_AT = re.compile(r"(?<![A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*")


def test_undeclared_lines_are_located_on_their_name():
    """Seeded mutations of the fixtures: rename one identifier or swap two lines."""
    rng = random.Random(9)
    texts = [fixture_path(name).read_text().splitlines() for name in FIGS]
    located = set()
    for _ in range(3000):
        rows = list(rng.choice(texts))
        i = rng.randrange(len(rows))
        names = list(_NAME_AT.finditer(rows[i]))
        if names and rng.random() < 0.8:
            m = rng.choice(names)
            rows[i] = rows[i][: m.start()] + rng.choice(("z", "t", "a_1")) + rows[i][m.end() :]
        else:
            j = rng.randrange(len(rows))
            rows[i], rows[j] = rows[j], rows[i]
        try:
            Circuit.parse("\n".join(rows))
        except UndeclaredLineError as e:
            name = e.message.split("'")[1]
            row = rows[e.line - 1]
            at = _NAME_AT.match(row, e.col - 1)
            assert at and at.group() == name, (row, e.col, name)
            located.add(row.split()[0])
        except CnqError:
            pass
    assert located >= {"spec", "v", "cnot"}


# -- gate constructor ------------------------------------------------------------


def test_gate_make_canonicalizes_power():
    assert Gate.make(2, -1, ("a",), "t").p == 3
    assert Gate.make(2, 5, ("a",), "t").p == 1
    assert Gate.make(4, 9, (), "t").p == 1
    with pytest.raises(ZeroPowerError):
        Gate.make(2, 4, ("a",), "t")
    with pytest.raises(BadRootError):
        Gate.make(0, 1, (), "t")
    with pytest.raises(BadRootError):
        Gate.make(6, 1, (), "t")


def test_gate_not_family_predicate():
    assert Gate.make(1, 1, ("a",), "t").is_not_family
    assert Gate.make(2, 2, ("a",), "t").is_not_family
    assert not Gate.make(2, 1, ("a",), "t").is_not_family
    assert not Gate.make(4, 2, ("a",), "t").is_not_family


# -- rendering ---------------------------------------------------------------------


def test_render_sugar_forms():
    mk = Gate.make
    pairs = [
        (mk(1, 1, (), "t"), "not t"),
        (mk(1, 1, ("a",), "t"), "cnot a t"),
        (mk(1, 1, ("a", "b"), "t"), "ccx a b t"),
        (mk(2, 1, ("a",), "t"), "v a -> t"),
        (mk(2, 3, ("a",), "t"), "v* a -> t"),
        (mk(4, 1, ("a",), "t"), "w a -> t"),
        (mk(4, 7, ("a",), "t"), "w* a -> t"),
        (mk(2, 1, (), "t"), "q k=2 p=1 -> t"),
        (mk(8, 5, ("a", "b"), "t"), "q k=8 p=5 a b -> t"),
        (mk(2, 2, ("a",), "t"), "q k=2 p=2 a -> t"),
    ]
    for g, text in pairs:
        c = Circuit((Line("a"), Line("b"), Line("t", True)), (g,))
        assert str(c).splitlines()[-1] == text
        assert Circuit.parse(str(c)).gates[0] == g


# -- validation -------------------------------------------------------------------


def test_validate_collects_diagnostics():
    # bypass the checked constructor to exercise the linter
    c = Circuit(
        (Line("a"), Line("a"), Line("t", True)),
        (
            Gate(3, 1, (), "t"),
            Gate(2, 4, ("a",), "t"),
            Gate(1, 1, ("z",), "t"),
            Gate(1, 1, ("t",), "t"),
            Gate(1, 1, ("a", "a"), "q"),
        ),
        {"ghost": Anf.var("a")},
    )
    codes = sorted(d.code for d in c.validate())
    assert codes == [
        "E_BAD_K",
        "E_SELF_CONTROL",
        "E_SYNTAX",
        "E_SYNTAX",
        "E_UNDECLARED_LINE",
        "E_UNDECLARED_LINE",
        "E_UNDECLARED_LINE",
        "E_ZERO_POWER",
    ]
    assert "gate 0" in str(next(d for d in c.validate() if d.code == "E_BAD_K"))


def test_validate_checks_every_rule_of_a_bad_gate():
    c = Circuit((Line("t", True),), (Gate(3, 1, ("z",), "t"),))
    assert sorted(e.code for e in c.validate()) == ["E_BAD_K", "E_UNDECLARED_LINE"]


# Line names: valid identifiers, invalid ones, and "z", which is never declared.
_VALID_NAMES = ("a", "b", "c", "t", "u")
_INVALID_NAMES = ("2x", "a-b", "x.y")
_USED_NAMES = _VALID_NAMES + _INVALID_NAMES + ("z",)


@st.composite
def _circuits(draw):
    """Circuits built directly, bypassing Gate.make.

    Each part (lines, gates, specs) keeps to well-formed choices three
    times in four, so that the round-trip direction of the property runs
    often; otherwise it may break any rule.
    """
    mostly = st.integers(0, 3).map(bool)
    strict = draw(mostly)
    line = st.builds(
        Line,
        st.sampled_from(_VALID_NAMES if strict else _VALID_NAMES + _INVALID_NAMES),
        st.booleans(),
    )
    lines = draw(
        st.lists(line, min_size=1, max_size=4, unique_by=lambda ln: ln.name)
        if strict
        else st.lists(line, max_size=4)
    )
    declared = [ln.name for ln in lines]
    strict = draw(mostly) and bool(declared)
    names = st.sampled_from(declared if strict else declared + list(_USED_NAMES))
    gates = []
    for _ in range(draw(st.integers(0, 4))):
        target = draw(names)
        controls = tuple(draw(st.lists(names, max_size=3, unique=strict)))
        if strict:
            controls = tuple(c for c in controls if c != target)
            k, p = draw(st.sampled_from((1, 2, 4, 8))), 2 * draw(st.integers()) + 1
        else:
            k, p = draw(st.integers(0, 8)), draw(st.integers())
        gates.append(Gate(k, p, controls, target))
    strict = draw(mostly)
    spec_lines = [ln.name for ln in lines if ln.is_target or not strict]
    if not strict:
        spec_lines += _USED_NAMES
    variables = st.sampled_from(declared if strict else declared + ["z"])
    anf = st.lists(st.lists(variables, max_size=2), max_size=3).map(Anf)
    specs = draw(st.dictionaries(st.sampled_from(spec_lines), anf, max_size=2)) if spec_lines else {}
    return Circuit(tuple(lines), tuple(gates), specs)


@given(_circuits())
@example(Circuit((Line("2x"), Line("t", True)), ()))
def test_parser_and_validate_share_one_rulebook(c):
    problems = c.validate()
    try:
        parsed = Circuit.parse(str(c))
    except CnqError as exc:
        assert exc.code in {e.code for e in problems}
        return
    if not problems:
        canonical = tuple(Gate(g.k, g.p % (2 * g.k), g.controls, g.target) for g in c.gates)
        assert parsed == replace(c, gates=canonical)


_NAMES = st.sampled_from("abcd")


_GATES = (
    st.one_of(st.integers(-2, 9), st.sampled_from((MAX_ROOT, 2 * MAX_ROOT))),
    st.integers(-20, 20),
    st.lists(_NAMES, max_size=4).map(tuple),
    _NAMES,
)


def _first(problems):
    return [(err.code, err.message) for _, err in problems[:1]]


@given(*_GATES)
def test_gate_make_raises_the_first_gate_problem(k, p, controls, target):
    problems = _gate_problems(k, p, controls, target, None)
    try:
        g = Gate.make(k, p, controls, target)
    except CnqError as exc:
        assert [(exc.code, exc.message)] == _first(problems)
        return
    assert not problems
    assert 0 < g.p < 2 * g.k


@given(*_GATES, st.sets(_NAMES))
def test_parser_raises_the_first_gate_problem(k, p, controls, target, declared):
    problems = _gate_problems(k, p, controls, target, declared)
    text = "".join(f"line {name}\n" for name in sorted(declared))
    text += f"q k={k} p={p} {' '.join(controls)} -> {target}\n"
    try:
        Circuit.parse(text)
    except CnqError as exc:
        assert [(exc.code, exc.message)] == _first(problems)
        return
    assert not problems


# -- gate census ---------------------------------------------------------------------


def test_gate_count_fig2(fig2):
    counts = fig2.gate_count()
    assert counts["total_controlled"] == 10
    assert counts["cv"] == 4
    assert counts["cv*"] == 2
    assert counts["cnot"] == 4
    assert counts["total_on_targets"] == 6
    assert counts["control_forming_cnots"] == 4


@pytest.mark.parametrize(
    "name,total",
    [("fig2", 10), ("fig3", 9), ("fig4", 8), ("fig5", 7), ("fig6", 10)],
)
def test_gate_count_totals(name, total):
    assert load(name).gate_count()["total_controlled"] == total


def test_gate_count_fig6_both_readings(fig6):
    counts = fig6.gate_count()
    assert counts["total_controlled"] == 10
    assert counts["total_on_targets"] == 8
    assert counts["control_forming_cnots"] == 2


def test_gate_count_categories():
    c = Circuit.parse(
        "line a\nline t target\nnot a\nq k=2 p=1 -> t\nq k=2 p=2 a -> t\nccx a a t"
        .replace("ccx a a t", "v a -> t")
    )
    counts = c.gate_count()
    assert counts["not"] == 1
    assert counts["q(k=2,p=1)"] == 1
    assert counts["cnot"] == 1          # k=2 p=2 is NOT-family
    assert counts["cv"] == 1
    assert counts["total_controlled"] == 2  # the bare not/q gates carry no control


# -- hashing ------------------------------------------------------------------------


def test_equal_circuits_hash_equal(fig2):
    again = Circuit.parse(str(fig2))
    assert hash(fig2) == hash(again)
    cache = {fig2: "fig2"}
    assert cache[again] == "fig2"
    assert replace(fig2, specs={}) != fig2


# -- the root-index limit --------------------------------------------------------------


def test_root_index_above_limit_is_rejected_at_its_token():
    from cnq.circuit import MAX_ROOT

    assert MAX_ROOT == 2**20
    with pytest.raises(BadRootError) as e:
        Circuit.parse("line a\nline t target\nq k=2097152 p=1 a -> t")
    assert (e.value.line, e.value.col) == (3, 3)
    assert str(MAX_ROOT) in e.value.message
    assert Circuit.parse("line a\nline t target\nq k=1048576 p=1 a -> t").gates[0].k == MAX_ROOT
    with pytest.raises(BadRootError):
        Gate.make(2 * MAX_ROOT, 1, ("a",), "t")
    c = Circuit((Line("a"), Line("t", True)), (Gate(2 * MAX_ROOT, 1, ("a",), "t"),))
    assert [e.code for e in c.validate()] == ["E_BAD_K"]

"""Circuit text format: parser, renderer, well-formedness on construction, gate census."""

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

from cnq.circuit import (
    MAX_ROOT,
    _gate_rule,
    _line_rule,
    _scope_rule,
    _spec_rule,
)

from conftest import fixture_path, load

FIGS = ["fig1", "fig2", "fig3", "fig4", "fig4_pre", "fig5", "fig6"]


# -- parsing -------------------------------------------------------------------


def test_parse_lines_and_roles(fig2):
    assert fig2.line_names == ("a", "b", "c", "t")
    assert fig2.target_names() == ("t",)
    roles = {ln.name: ln.role for ln in fig2.lines}
    assert roles == {"a": "control", "b": "control", "c": "control", "t": "target"}


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
    assert c.gates[0] == Gate(1, 1, ("a",), "t")


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
        # an offending name is located on the statement's arguments: not on the
        # k=2 token, not on the head, and inside a glued spec expression
        ("line k\nline t target\nq k=2 p=1 k k -> t", ParseError, (3, 11)),
        ("line ccx\nline t target\nccx ccx ccx t", ParseError, (3, 5)),
        ("line t target\nspec t = t^q", UndeclaredLineError, (2, 12)),
        ("line a\nspec a=a", ParseError, (2, 6)),
        # columns count characters of the statement as written: tabs, runs of
        # spaces, Unicode whitespace and arrows glued to their neighbours
        ("line a\nline t target\nv\ta->z", UndeclaredLineError, (3, 6)),
        ("line a\nline t target\nw*  a->z", UndeclaredLineError, (3, 8)),
        ("line a\nline t target\nv a-->t", UndeclaredLineError, (3, 3)),
        ("line a\nline t target\ncnot\u00a0a z", UndeclaredLineError, (3, 8)),
        ("line a\nline t target\nq  k=3\tp=1 a -> t", BadRootError, (3, 4)),
        # an undeclared line written k= or p= is located on itself, after the
        # k= and p= arguments that stand for a bad root and power
        ("line a\nline t target\nq k=2 p=1 k= -> t", UndeclaredLineError, (3, 11)),
        ("line a\nline t target\nq k=2 p=1 a p= -> t", UndeclaredLineError, (3, 13)),
        ("line a\nline t target\nq k=2 p=1 a -> k=", UndeclaredLineError, (3, 16)),
    ],
)
def test_parse_errors_carry_location(text, err, loc):
    with pytest.raises(err) as e:
        Circuit.parse(text)
    line, col = loc
    assert e.value.line == line
    if col is not None:
        assert e.value.col == col


# '*', '+', '-' and integers are tokens of the expression lexer that no spec
# rule accepts: each is refused by name, at its own column
@pytest.mark.parametrize(
    "expr,loc,message",
    [
        ("t ^ a*b", (4, 15), "unexpected token '*'"),
        ("t + a", (4, 12), "unexpected token '+'"),
        ("t - a", (4, 12), "unexpected token '-'"),
        ("t ^ 2", (4, 14), "expected a variable, constant or '(', got '2'"),
        ("-a", (4, 10), "expected a variable, constant or '(', got '-'"),
        ("t ^ a -> b", (4, 16), "unexpected token '->'"),
    ],
)
def test_spec_refuses_tokens_outside_its_grammar(expr, loc, message):
    with pytest.raises(ParseError) as e:
        Circuit.parse(f"line a\nline b\nline t target\nspec t = {expr}\n")
    assert (e.value.line, e.value.col, e.value.message) == (*loc, message)


_NAME_AT = re.compile(r"(?<![A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*")


def test_undeclared_lines_are_located_on_their_name():
    """Seeded mutations of the fixtures: rename one identifier or swap two lines,
    then perhaps respace the row: a tab or a run of spaces for one space, or
    the spaces around an arrow removed."""
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
        spaces = [m.start() for m in re.finditer(" ", rows[i])]
        if spaces and rng.random() < 0.5:
            if rng.random() < 0.3:
                rows[i] = rows[i].replace(" -> ", "->")
            else:
                at = rng.choice(spaces)
                rows[i] = rows[i][:at] + rng.choice(("\t", "   ")) + rows[i][at + 1 :]
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
    assert Gate(2, -1, ("a",), "t") == Gate(2, 3, ("a",), "t")
    assert Gate(2, 5, ("a",), "t").p == 1
    assert Gate(4, 9, (), "t").p == 1
    with pytest.raises(ZeroPowerError):
        Gate(2, 4, ("a",), "t")
    with pytest.raises(BadRootError):
        Gate(0, 1, (), "t")
    with pytest.raises(BadRootError):
        Gate(6, 1, (), "t")


def test_gate_not_family_predicate():
    assert Gate(1, 1, ("a",), "t").is_not_family
    assert Gate(2, 2, ("a",), "t").is_not_family
    assert not Gate(2, 1, ("a",), "t").is_not_family
    assert not Gate(4, 2, ("a",), "t").is_not_family


# -- rendering ---------------------------------------------------------------------


def test_render_sugar_forms():
    pairs = [
        (Gate(1, 1, (), "t"), "not t"),
        (Gate(1, 1, ("a",), "t"), "cnot a t"),
        (Gate(1, 1, ("a", "b"), "t"), "ccx a b t"),
        (Gate(2, 1, ("a",), "t"), "v a -> t"),
        (Gate(2, 3, ("a",), "t"), "v* a -> t"),
        (Gate(4, 1, ("a",), "t"), "w a -> t"),
        (Gate(4, 7, ("a",), "t"), "w* a -> t"),
        (Gate(2, 1, (), "t"), "q k=2 p=1 -> t"),
        (Gate(8, 5, ("a", "b"), "t"), "q k=8 p=5 a b -> t"),
        (Gate(2, 2, ("a",), "t"), "q k=2 p=2 a -> t"),
    ]
    for g, text in pairs:
        c = Circuit((Line("a"), Line("b"), Line("t", True)), (g,))
        assert str(c).splitlines()[-1] == text
        assert Circuit.parse(str(c)).gates[0] == g


# -- well-formed by construction ----------------------------------------------------

_LINES = (Line("a"), Line("t", True))


@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: Circuit(), "E_SYNTAX: circuit declares no lines"),
        (lambda: Circuit((Line("2x"),)), "E_SYNTAX: invalid line name '2x'"),
        (lambda: Circuit((Line("a"), Line("a"))), "E_SYNTAX: line 'a' already declared"),
        (lambda: Gate(3, 1, (), "t"), "E_BAD_K: root index must be a positive power of two, got 3"),
        (lambda: Gate(2, 4, ("a",), "t"), "E_ZERO_POWER: power 4 is 0 mod 4: the identity gate"),
        (lambda: Gate(2, 1.5, ("a",), "t"), "E_SYNTAX: power must be an integer, got 1.5"),
        (lambda: Gate(1, 1, ("a", "a"), "t"), "E_SYNTAX: duplicate control on gate targeting 't'"),
        (lambda: Gate(1, 1, ("t",), "t"), "E_SELF_CONTROL: line 't' controls its own gate"),
        # a string is refused, not split into one-letter controls
        (
            lambda: Gate(2, 1, "ab", "t"),
            "E_SYNTAX: controls must be a tuple of line names, got 'ab'",
        ),
        (
            lambda: Gate(1, 1, "ctrl", "t"),
            "E_SYNTAX: controls must be a tuple of line names, got 'ctrl'",
        ),
        (lambda: Circuit((Line(3),)), "E_SYNTAX: invalid line name 3"),
        (
            lambda: Circuit(_LINES, (), {"t": "t ^ a"}),
            "E_SYNTAX: spec for line 't' is not an Anf: 't ^ a'",
        ),
        (
            lambda: Circuit(_LINES, (Gate(1, 1, (), "t"), Gate(1, 1, ("z",), "t"))),
            "gate 1: E_UNDECLARED_LINE: line 'z' used before declaration",
        ),
        (
            lambda: Circuit(_LINES, (Gate(1, 1, ("a",), "q"),)),
            "gate 0: E_UNDECLARED_LINE: line 'q' used before declaration",
        ),
        (
            lambda: Circuit(_LINES, (), {"a": Anf.var("a")}),
            "E_SYNTAX: spec refers to non-target line 'a'",
        ),
        (
            lambda: Circuit(_LINES, (), {"ghost": Anf.var("a")}),
            "E_UNDECLARED_LINE: line 'ghost' used before declaration",
        ),
        (
            lambda: Circuit(_LINES, (), {"t": Anf.var("z")}),
            "E_UNDECLARED_LINE: line 'z' used before declaration",
        ),
        # lines before gates before specs
        (
            lambda: Circuit((Line("a"), Line("a")), (Gate(1, 1, ("z",), "a"),), {"q": Anf.one()}),
            "E_SYNTAX: line 'a' already declared",
        ),
        (
            lambda: Circuit(_LINES, (Gate(1, 1, ("z",), "t"),), {"q": Anf.one()}),
            "gate 0: E_UNDECLARED_LINE: line 'z' used before declaration",
        ),
        (
            lambda: replace(load("fig2"), specs={"a": Anf.var("a")}),
            "E_SYNTAX: spec refers to non-target line 'a'",
        ),
        (
            lambda: load("fig2").with_gates([Gate(2, 1, ("z",), "t")]),
            "gate 0: E_UNDECLARED_LINE: line 'z' used before declaration",
        ),
    ],
    ids=[
        "no-lines", "bad-name", "duplicate-line", "bad-root", "zero-power", "non-integer-power",
        "duplicate-control", "self-control", "string-controls", "string-control",
        "non-string-name", "text-spec", "undeclared-control", "undeclared-target",
        "spec-on-control", "spec-on-undeclared", "spec-variable-undeclared",
        "lines-first", "gates-before-specs", "replace", "with-gates",
    ],
)
def test_construction_raises_the_first_problem(build, text):
    with pytest.raises(CnqError) as e:
        build()
    assert str(e.value) == text


def test_specs_are_a_read_only_copy(fig2):
    specs = {"t": Anf.var("t")}
    c = Circuit(fig2.lines, fig2.gates, specs)
    specs["a"] = Anf.var("a")
    assert list(c.specs) == ["t"]
    with pytest.raises(TypeError):
        c.specs["a"] = Anf.var("a")


# Line names: valid identifiers, invalid ones, and "z", which is never declared.
_VALID_NAMES = ("a", "b", "c", "t", "u")
_INVALID_NAMES = ("2x", "a-b", "x.y")
_USED_NAMES = _VALID_NAMES + _INVALID_NAMES + ("z",)


@st.composite
def _parts(draw):
    """The raw parts of a circuit: lines, (k, p, controls, target) gates, specs.

    Each part keeps to well-formed choices three times in four, so that
    both sides often build a circuit; otherwise it may break any rule.
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
        gates.append((k, p, controls, target))
    strict = draw(mostly)
    spec_lines = [ln.name for ln in lines if ln.is_target or not strict]
    if not strict:
        spec_lines += _USED_NAMES
    variables = st.sampled_from(declared if strict else declared + ["z"])
    anf = st.lists(st.lists(variables, max_size=2), max_size=3).map(Anf)
    specs = draw(st.dictionaries(st.sampled_from(spec_lines), anf, max_size=2)) if spec_lines else {}
    return lines, gates, specs


def _text(lines, gates, specs):
    """The parts as ``.cnq`` text, every gate a ``q`` statement."""
    out = [f"line {ln.name} target" if ln.is_target else f"line {ln.name}" for ln in lines]
    out += [f"q k={k} p={p} {' '.join(ctrls)} -> {target}" for k, p, ctrls, target in gates]
    out += [f"spec {name} = {expr}" for name, expr in specs.items()]
    return "\n".join(out) + "\n"


def _codes(lines, gates, specs):
    """The code of the first problem each rule raises on each part."""
    codes = set() if lines else {ParseError.code}

    def check(rule, *args):
        try:
            rule(*args)
        except CnqError as err:
            codes.add(err.code)

    declared = set()
    for ln in lines:
        check(_line_rule, ln.name, declared)
        declared.add(ln.name)
    for k, p, ctrls, target in gates:
        check(_scope_rule, (*ctrls, target), declared)
        check(_gate_rule, k, p, ctrls, target)
    targets = {ln.name for ln in lines if ln.is_target}
    for name, expr in specs.items():
        check(_spec_rule, name, expr, declared, targets)
    return codes


def _outcome(build):
    try:
        return build()
    except CnqError as exc:
        return exc


@given(_parts())
@example(([Line("2x"), Line("t", True)], [], {}))
def test_parser_and_constructor_share_one_rulebook(parts):
    lines, gates, specs = parts
    built = _outcome(lambda: Circuit(lines, [Gate(*g) for g in gates], specs))
    parsed = _outcome(lambda: Circuit.parse(_text(*parts)))
    assert isinstance(built, CnqError) == isinstance(parsed, CnqError)
    if isinstance(built, CnqError):
        assert {built.code, parsed.code} <= _codes(*parts)
    else:
        assert parsed == built


_NAMES = st.sampled_from("abcd")


_GATES = (
    st.one_of(st.integers(-2, 9), st.sampled_from((MAX_ROOT, 2 * MAX_ROOT))),
    st.integers(-20, 20),
    st.lists(_NAMES, max_size=4).map(tuple),
    _NAMES,
)


def _first(*rules):
    """The (code, message) of the first problem the rules raise, in turn, or None."""
    for rule in rules:
        try:
            rule()
        except CnqError as err:
            return err.code, err.message
    return None


@pytest.mark.parametrize(
    "gate,code,token",
    [
        ((3, 0, ("a", "a"), "a"), "E_BAD_K", "k="),
        ((2, 4, ("a", "a"), "a"), "E_ZERO_POWER", "p="),
        ((2, 1, ("a", "a"), "a"), "E_SYNTAX", "a"),
        ((2, 1, ("a",), "a"), "E_SELF_CONTROL", "a"),
    ],
    ids=["bad-root", "zero-power", "duplicate-control", "self-control"],
)
def test_gate_raises_its_first_problem_in_rule_order(gate, code, token):
    with pytest.raises(CnqError) as e:
        Gate(*gate)
    assert (e.value.code, e.value.token) == (code, token)


@given(*_GATES, st.sets(_NAMES))
def test_parser_raises_the_first_gate_problem(k, p, controls, target, declared):
    first = _first(
        lambda: _scope_rule((*controls, target), declared),
        lambda: _gate_rule(k, p, controls, target),
    )
    text = "".join(f"line {name}\n" for name in sorted(declared))
    text += f"q k={k} p={p} {' '.join(controls)} -> {target}\n"
    try:
        (g,) = Circuit.parse(text).gates
    except CnqError as exc:
        assert (exc.code, exc.message) == first
        return
    assert first is None
    assert 0 < g.p < 2 * g.k


@pytest.mark.parametrize(
    "statement,col,message",
    [
        ("q k=2 p=1_1 a -> t", 7, "bad power '1_1'"),   # a digit separator
        ("q k=\u0663 p=1 a -> t", 3, "bad root index '\u0663'"),   # an Arabic-Indic 3
        ("q k=2 p=" + "1" * 5000 + " a -> t", 7, f"bad power '{'1' * 5000}'"),  # beyond int()
    ],
    ids=["digit-separator", "non-ascii-digit", "too-many-digits"],
)
def test_q_integers_are_a_sign_and_ascii_digits(statement, col, message):
    with pytest.raises(ParseError) as e:
        Circuit.parse(f"line a\nline t target\n{statement}")
    assert (e.value.line, e.value.col, e.value.message) == (3, col, message)
    assert Circuit.parse("line a\nline t target\nq k=+2 p=-1 a -> t").gates == (Gate(2, 3, ("a",), "t"),)


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
    # specs stay out of the hash
    assert replace(fig2, specs={}) != fig2
    assert hash(replace(fig2, specs={})) == hash(fig2)


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
        Gate(2 * MAX_ROOT, 1, ("a",), "t")

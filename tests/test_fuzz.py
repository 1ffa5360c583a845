"""Fuzzing the command line in-process: garbage, random and deeply nested
formula text for `decide`, random JSON for `check`.

No input may crash the CLI (exit 4, or a traceback in its output), and no
verdict may stand without evidence that checks on its own: exit 0 carries a
certificate that derives the formula, and exit 1 a countermodel that refutes
it or a shadow search that closed completely and exactly."""
import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from ticket.cli import EXIT_EMPTY, EXIT_ERROR, EXIT_EXHAUSTED, EXIT_INHABITED, main
from ticket.combinators import check_derivation, derivation_from_json
from ticket.countermodel import check_countermodel, countermodel_from_json
from ticket.formula import parse_formula

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue(), err.getvalue()


atoms = st.sampled_from(["a", "b", "c"])
formula_text = st.recursive(
    atoms, lambda f: st.tuples(f, f).map(lambda p: f"({p[0]}->{p[1]})"), max_leaves=7
)
garbage = st.text(alphabet="abc()->_1 \t", max_size=24) | st.text(max_size=12)
deep = st.builds(
    lambda n, shape: shape(n),
    st.integers(1, 1200),
    st.sampled_from(
        [
            lambda n: "->".join(["a"] * n),  # right-nested chain
            lambda n: "(" * n + "a->a" + ")" * n,  # redundant parentheses
            lambda n: "(" * n + "a" + "->a)" * n,  # left-nested
            lambda n: "(" * n + "a->a",  # unclosed
        ]
    ),
)


@FUZZ
@given(formula_text | garbage | deep)
def test_decide_never_crashes_and_every_verdict_checks(text):
    code, out, err = _run(["decide", text, "--json", "--time-budget", "0.2"])
    if code == EXIT_ERROR:
        # a syntax error, or a usage error for text that reads as an option
        assert out == "" and "error: " in err
        return
    payload = json.loads(out)
    phi = parse_formula(text)
    if code == EXIT_INHABITED:
        assert check_derivation(derivation_from_json(payload["witness_combinator"])) == phi
    elif code == EXIT_EMPTY:
        if payload["countermodel"] is not None:
            check_countermodel(countermodel_from_json(payload["countermodel"]), phi)
        else:
            assert payload["stats"]["closure_complete"] and payload["stats"]["closure_exact"]
    else:
        assert code == EXIT_EXHAUSTED and payload["verdict"] == "ResourceExhausted"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
kinds = st.sampled_from(["I", "B", "B'", "W", "mp", "K"]) | json_values
# instances of I and B, so that some certificates check
axiom_types = st.sampled_from(["a->a", "(b->b)->b->b", "(a->b)->(c->a)->c->b"])
types = axiom_types | formula_text | garbage | json_values
certificates = st.recursive(
    st.fixed_dictionaries({"kind": kinds, "type": types}),
    lambda inner: st.fixed_dictionaries(
        {"kind": st.just("mp") | kinds, "type": types, "children": st.lists(inner, max_size=3)}
    ),
    max_leaves=6,
)
values = st.integers(0, 2) | st.integers(-1, 3) | json_values
countermodels = st.fixed_dictionaries(
    {
        "table": st.lists(st.integers(0, 2), min_size=9, max_size=9)
        | st.lists(values, max_size=10),
        "designated": st.lists(st.integers(0, 2), max_size=3, unique=True)
        | st.lists(values, max_size=4),
        "assignment": st.dictionaries(atoms, values, max_size=3),
    }
)
certificate_files = (
    (json_values | certificates | countermodels).map(json.dumps)
    | st.text(max_size=20)
    | st.integers(1, 3000).map(lambda n: "[" * n + "]" * n)
)


@FUZZ
@given(certificate_files, axiom_types | formula_text | garbage)
def test_check_exits_only_with_a_verdict_or_a_format_error(tmp_path_factory, text, formula):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    code, _, _ = _run(["check", str(path), formula])
    assert code in (EXIT_INHABITED, EXIT_EMPTY, EXIT_ERROR)

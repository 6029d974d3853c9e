"""The package's records are value classes: equality and hashing by field
tuple within one class, ``Cls(field=value, ...)`` reprs, keyword
construction with defaults, and no assignment to a field, except that
``LawResult`` is mutable and unhashable.  A record's constructor is
generated from its fields: it takes them in order, with the defaults
shown, and a call that misses one names ``Cls.__init__``."""

import copy
import inspect

import pytest

from copartial.delay import Converged, Exhausted, never, now
from copartial.fixpoint import Operator
from copartial.laws import DelayGen, LawResult
from copartial.nested import DevilSpec
from copartial.reccode import Comp, Min, PrimRec, Proj, Succ, Zero
from copartial.semantics import HOLDS, Verdict


def ident(x):
    return x


def big(x):
    return x > 100


NEVER = never()

# name: (make, other, repr text, keyword construction).  Each call of
# ``make`` builds a new record equal to the last; ``other`` differs from it
# in one field; the keyword construction equals ``make()``.
RECORDS = {
    "Converged": (lambda: Converged(7, 3), Converged(7, 4),
                  "Converged(value=7, steps=3)", lambda: Converged(steps=3, value=7)),
    "Exhausted": (lambda: Exhausted(NEVER), Exhausted(now(1)),
                  "Exhausted(rest=Later(...))", lambda: Exhausted(rest=NEVER)),
    "Verdict": (lambda: Verdict("unknown", 5), Verdict("unknown"),
                "Verdict(kind='unknown', fuel_spent=5)",
                lambda: Verdict(fuel_spent=5, kind="unknown")),
    "Operator": (lambda: Operator(ident, "id"), Operator(ident),
                 f"Operator(apply={ident!r}, name='id')",
                 lambda: Operator(name="id", apply=ident)),
    "DevilSpec": (lambda: DevilSpec(big, ident, ident, ident), DevilSpec(big, ident, ident, big),
                  f"DevilSpec(in_base={big!r}, i={ident!r}, g={ident!r}, h={ident!r})",
                  lambda: DevilSpec(h=ident, g=ident, i=ident, in_base=big)),
    "DelayGen": (lambda: DelayGen(True), DelayGen(),
                 "DelayGen(include_never=True)", lambda: DelayGen(include_never=True)),
    "LawResult": (lambda: LawResult("law", HOLDS, 2), LawResult("law", HOLDS, 3),
                  "LawResult(name='law', verdict=Verdict(kind='holds', fuel_spent=None), "
                  "holds=2, unknown=0, fails=0, counterexample=None)",
                  lambda: LawResult(holds=2, name="law")),
    "Zero": (Zero, Succ(), "Zero()", Zero),
    "Succ": (Succ, Zero(), "Succ()", Succ),
    "Proj": (lambda: Proj(1, 2), Proj(2, 2), "Proj(i=1, n=2)", lambda: Proj(n=2, i=1)),
    "Comp": (lambda: Comp(Succ(), (Proj(1, 2),)), Comp(Succ(), (Proj(2, 2),)),
             "Comp(f=Succ(), gs=(Proj(i=1, n=2),))",
             lambda: Comp(gs=(Proj(1, 2),), f=Succ())),
    "PrimRec": (lambda: PrimRec(Proj(1, 1), Zero()), PrimRec(Zero(), Proj(1, 1)),
                "PrimRec(f=Proj(i=1, n=1), g=Zero())",
                lambda: PrimRec(g=Zero(), f=Proj(1, 1))),
    "Min": (lambda: Min(Zero()), Min(Succ()), "Min(f=Zero())", lambda: Min(f=Zero())),
}
FIELDS = {
    "Converged": ("value", "steps"),
    "Exhausted": ("rest",),
    "Verdict": ("kind", "fuel_spent"),
    "Operator": ("apply", "name"),
    "DevilSpec": ("in_base", "i", "g", "h"),
    "DelayGen": ("include_never",),
    "LawResult": ("name", "verdict", "holds", "unknown", "fails", "counterexample"),
    "Zero": (),
    "Succ": (),
    "Proj": ("i", "n"),
    "Comp": ("f", "gs"),
    "PrimRec": ("f", "g"),
    "Min": ("f",),
}
# name: the record's signature as ``inspect`` prints it.
SIGNATURES = {
    "Converged": "(value, steps)",
    "Exhausted": "(rest)",
    "Verdict": "(kind, fuel_spent=None)",
    "Operator": "(apply, name='operator')",
    "DevilSpec": "(in_base, i, g, h)",
    "DelayGen": "(include_never=False)",
    "LawResult": ("(name, verdict=Verdict(kind='holds', fuel_spent=None), holds=0, unknown=0, "
                  "fails=0, counterexample=None)"),
    "Zero": "()",
    "Succ": "()",
    "Proj": "(i, n)",
    "Comp": "(f, gs)",
    "PrimRec": "(f, g)",
    "Min": "(f)",
}
FROZEN = sorted(set(RECORDS) - {"LawResult"})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_make_equal_records(name):
    make, other, _, keywords = RECORDS[name]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert x == keywords()
    assert copy.copy(x) == x
    assert x != other and not x == other


@pytest.mark.parametrize("name", FROZEN)
def test_equal_records_hash_alike(name):
    make = RECORDS[name][0]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_of_other_classes_differ(name):
    x = RECORDS[name][0]()
    for other in sorted(set(RECORDS) - {name}):
        assert x != RECORDS[other][0](), other
    assert x != tuple(getattr(x, field) for field in FIELDS[name])
    assert Zero() != Succ() and Proj(1, 2) != (1, 2)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field(name):
    make, _, text, _ = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned(name):
    x = RECORDS[name][0]()
    before = repr(x)
    for field in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert repr(x) == before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_the_constructor_takes_the_fields_in_order(name):
    assert str(inspect.signature(type(RECORDS[name][0]()))) == SIGNATURES[name]


# Every record but these has a field with no default.
@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"Zero", "Succ", "DelayGen"}))
def test_a_missing_field_names_the_constructor(name):
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing .*'{FIELDS[name][0]}'"):
        type(RECORDS[name][0]())()


def test_defaults():
    assert Verdict("holds").fuel_spent is None
    assert Operator(ident).name == "operator"
    assert DelayGen().include_never is False
    r = LawResult("law")
    assert (r.verdict, r.holds, r.unknown, r.fails, r.counterexample) == (HOLDS, 0, 0, 0, None)


def test_law_result_is_mutable_and_unhashable():
    r = LawResult("law")
    r.holds += 1
    r.counterexample = "x"
    assert r == LawResult("law", holds=1, counterexample="x")
    with pytest.raises(TypeError):
        hash(r)

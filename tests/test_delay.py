"""Delay constructors, monadic structure, pairing, race, and search."""

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copartial import (
    Again,
    Converged,
    Done,
    Exhausted,
    bind,
    delay_by,
    diverges_finite_state,
    fmap,
    later,
    never,
    now,
    parallel_search,
    race,
    run_for,
    strength,
    strict_pair,
    strict_proj,
    strict_tuple,
    unfold,
)
from copartial import delay
from copartial.delay import Delay, Now, _skip
from copartial.lazy import Ended, lazy_le, lazy_of, lazy_plus, observe, step, succ
from copartial.nested import cnest
from copartial.reccode import CORPUS, oracle_eval
from tests.conftest import finite_delays


def converged(d, fuel):
    r = run_for(d, fuel)
    assert isinstance(r, Converged), r
    return r


class TestConstructors:
    def test_now_zero_fuel(self):
        assert run_for(now(7), 0) == Converged(7, 0)

    def test_now_surplus_fuel(self):
        assert run_for(now(7), 5) == Converged(7, 0)

    def test_later_one_step(self):
        assert run_for(later(lambda: now(3)), 1) == Converged(3, 1)

    def test_later_needs_fuel(self):
        assert isinstance(run_for(later(lambda: now(3)), 0), Exhausted)

    def test_delay_by_exact(self):
        for n in range(8):
            assert run_for(delay_by(0, n), n) == Converged(0, n)
            if n:
                assert isinstance(run_for(delay_by(0, n), n - 1), Exhausted)

    def test_delay_by_rejects_negative(self):
        with pytest.raises(ValueError):
            delay_by(0, -1)

    def test_never_exhausts_any_fuel(self):
        for fuel in (0, 1, 10_000):
            assert isinstance(run_for(never(), fuel), Exhausted)

    def test_run_for_rejects_negative_fuel(self):
        with pytest.raises(ValueError):
            run_for(now(1), -1)

    @pytest.mark.parametrize("x, text", [
        (now(7), "Now(7)"), (never(), "Later(...)"), (lazy_of(1), "Succ(...)"), (Again("s"), "Again('s')"),
    ], ids=["Now", "Later", "Succ", "Again"])
    def test_repr(self, x, text):
        assert repr(x) == text


@pytest.mark.parametrize(
    "run",
    [lambda: run_for(delay_by(1, 2), 2.5),
     lambda: observe(lazy_of(2), 2.5),
     lambda: lazy_le(lazy_of(1), lazy_of(2), 2.5),
     lambda: oracle_eval(CORPUS["plus"], [1, 2], 2.5),
     lambda: delay_by(1, 2.5),
     lambda: lazy_of(2.5)],
    ids=["run_for", "observe", "lazy_le", "oracle_eval", "delay_by", "lazy_of"],
)
def test_non_integer_fuel_is_rejected(run):
    # Fuel is compared with ``==`` as it is spent: a fractional fuel would
    # never run out on a divergent input.  A fractional ``delay_by`` or
    # ``lazy_of`` count would be stored in its run node unnoticed, so it is
    # rejected at once.
    with pytest.raises(TypeError):
        run()


def stalling_countdown(stalls, calls):
    """A step from ``(left, tick)`` that counts ``left`` down to 0, but not at
    the ticks where the cycled ``stalls`` is true; it finishes with the tick
    count, and logs each state it is called on in ``calls``."""

    def step(s):
        calls.append(s)
        left, tick = s
        if left == 0:
            return Done(tick)
        return Again((left - (not stalls[tick % len(stalls)]), tick + 1))

    return step


class TestUnfold:
    def test_countdown(self):
        step = lambda k: Done("done") if k == 0 else Again(k - 1)
        assert run_for(unfold(3, step), 3) == Converged("done", 3)

    def test_constant_left_never_converges(self):
        assert isinstance(run_for(unfold(0, lambda s: Again(s)), 500), Exhausted)

    def test_minimization_scan(self):
        # least y with |y - 4| = 0, found by brute upward scan
        step = lambda y: Done(y) if abs(y - 4) == 0 else Again(y + 1)
        assert run_for(unfold(0, step), 10) == Converged(4, 4)

    @given(st.integers(min_value=0, max_value=30))
    def test_steps_equal_left_count(self, n):
        step = lambda k: Done(k) if k == 0 else Again(k - 1)
        assert run_for(unfold(n, step), n) == Converged(0, n)

    @given(
        st.integers(0, 200),
        st.lists(st.booleans(), min_size=1, max_size=6),
        st.integers(0, 400),
        st.integers(0, 400),
    )
    @settings(max_examples=200, deadline=None)
    def test_bulk_run_matches_peeling_one_step_at_a_time(self, n, stalls, fuel, more):
        def fresh(calls):
            return unfold((n, 0), stalling_countdown(stalls, calls))

        one, peeled = fresh([]), 0
        while not isinstance(one, Done) and peeled < fuel:
            one, peeled = one.rest(), peeled + 1
        calls = []
        bulk = run_for(fresh(calls), fuel)
        if isinstance(one, Done):
            assert bulk == Converged(one.value, peeled)
        else:
            assert isinstance(bulk, Exhausted)
        whole = run_for(fresh([]), fuel + more)
        if isinstance(bulk, Exhausted):
            resumed = run_for(bulk.rest, more)
            if isinstance(whole, Converged):
                assert resumed == Converged(whole.value, whole.steps - fuel)
            else:
                assert isinstance(resumed, Exhausted)
        # One call for the first step taken at construction, one per step peeled.
        steps = whole.steps if isinstance(whole, Converged) else fuel + more
        assert len(calls) == steps + 1

    def test_a_step_may_continue_as_any_delay(self):
        # Three ``Again``s, then the unfold continues as a 5-step run.
        step = lambda s: Again(s + 1) if s < 3 else delay_by(7, 5)
        u = unfold(0, step)
        assert run_for(u, 100) == run_for(u, 100) == Converged(7, 8)
        for cut in range(8):
            r = run_for(unfold(0, step), cut)
            assert isinstance(r, Exhausted)
            assert run_for(r.rest, 100) == Converged(7, 8 - cut)

    def test_a_node_run_twice_takes_its_steps_once(self):
        # The first cut is memoised, so the second run reads it back.
        calls = []
        u = unfold(10, lambda k: calls.append(k) or (Done(k) if k == 0 else Again(k - 1)))
        first, second = run_for(u, 5), run_for(u, 5)
        assert len(calls) == 6
        assert isinstance(first, Exhausted) and second == first


class TestMonad:
    def test_fmap_preserves_steps(self):
        assert run_for(fmap(lambda v: v + 1, delay_by(4, 2)), 2) == Converged(5, 2)

    def test_fmap_of_never(self):
        assert isinstance(run_for(fmap(lambda v: v, never()), 1000), Exhausted)

    def test_fmap_now(self):
        assert run_for(fmap(lambda v: 2 * v, now(21)), 0) == Converged(42, 0)

    def test_bind_adds_steps(self):
        r = run_for(bind(lambda a: now(a + 1), delay_by(1, 3)), 3)
        assert r == Converged(2, 3)

    def test_bind_into_never(self):
        assert isinstance(run_for(bind(lambda a: never(), now(0)), 1000), Exhausted)

    def test_bind_unit_instance(self):
        x = delay_by(9, 5)
        assert run_for(bind(now, x), 5) == run_for(x, 5)

    @given(finite_delays(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=100)
    def test_bind_step_additivity(self, x, pad):
        rx = converged(x, 64)
        r = converged(bind(lambda a: delay_by(a, pad), x), 64)
        assert r.steps == rx.steps + pad
        assert r.value == rx.value

    @given(finite_delays())
    @settings(max_examples=100)
    def test_fmap_step_exactness(self, x):
        rx = converged(x, 64)
        r = converged(fmap(lambda v: v * 3, x), 64)
        assert r == Converged(rx.value * 3, rx.steps)

    @pytest.mark.parametrize(
        "head, steps",
        [(lambda: delay_by(0, 1), 1), (lambda: later(lambda: now(0)), 1), (lambda: delay_by(0, 3), 3)],
        ids=["run", "later", "longer-run"],
    )
    def test_a_bind_node_run_twice_runs_its_continuation_once(self, head, steps):
        calls = []
        x = bind(lambda v: calls.append(v) or now(v), head())
        assert run_for(x, 10) == run_for(x, 10) == Converged(0, steps)
        assert calls == [0]


class TestNotADelay:
    @pytest.mark.parametrize(
        "call, got",
        [(lambda: bind(now, "abc"), "str"),
         (lambda: bind(now, [1]), "list"),
         (lambda: bind(now, 3), "int"),
         (lambda: fmap(str, (1, 2)), "tuple"),
         (lambda: strict_tuple(["x"]), "str"),
         (lambda: strict_tuple([delay_by(0, 1), "x"]), "str"),
         (lambda: run_for(5, 10), "int"),
         (lambda: race(5, delay_by(0, 3)), "int"),
         (lambda: race(5, now(1)), "int"),
         (lambda: observe(5, 10), "int"),
         (lambda: lazy_le(lazy_of(2), [1], 10), "list"),
         (lambda: lazy_le(5, lazy_of(2), 10), "int")],
        ids=["bind-str", "bind-list", "bind-int", "fmap", "strict_tuple", "strict_tuple-second",
             "run_for", "race-left", "race-right-converged", "observe", "lazy_le-right",
             "lazy_le-left"],
    )
    def test_a_non_delay_argument_is_refused(self, call, got):
        with pytest.raises(TypeError, match=f"expected a Delay, got {got}$"):
            call()

    @pytest.mark.parametrize("make", [lambda: Delay(), lambda: Delay[int]()],
                             ids=["Delay", "Delay[int]"])
    def test_the_base_class_cannot_be_built(self, make):
        with pytest.raises(TypeError, match="Delay is abstract"):
            make()

    @pytest.mark.parametrize("steps", [1, 3])
    def test_a_continuation_that_returns_a_non_delay_raises_at_its_step(self, steps):
        # Behind no step, ``bind`` runs the continuation at once.
        with pytest.raises(TypeError, match="expected a Delay, got list$"):
            bind(lambda v: [v], now(0))
        x = bind(lambda v: [v], delay_by(0, steps))
        assert isinstance(run_for(x, steps - 1), Exhausted)
        with pytest.raises(TypeError, match="expected a Delay, got list$"):
            run_for(x, steps)

    @pytest.mark.parametrize("make", [later, succ], ids=["later", "succ"])
    def test_a_closure_that_returns_a_non_delay_raises_at_its_step_each_run(self, make):
        x = make(lambda: make(lambda: 5))
        assert isinstance(run_for(x, 1), Exhausted)
        for _ in range(2):
            with pytest.raises(TypeError, match="expected a Delay, got int$"):
                run_for(x, 10)
        with pytest.raises(TypeError, match="expected a Delay, got int$"):
            observe(x, 10)

    @pytest.mark.parametrize("late", [False, True], ids=["first-entrant", "fourth-entrant"])
    def test_a_non_delay_search_entrant_raises_in_its_round_and_closes_the_search(self, late):
        # Entrant n is called in step n + 1; the search is a generator, which the error closes.
        n = 3 if late else 0
        search = parallel_search(lambda i: delay_by(0, 100) if i < n else 7)
        assert isinstance(run_for(search, n), Exhausted)
        with pytest.raises(TypeError, match="expected a Delay, got int$"):
            run_for(search, 10)
        with pytest.raises(RuntimeError, match="cannot resume"):
            run_for(search, 10)

    @pytest.mark.parametrize("thunk", [5], ids=["int"])
    @pytest.mark.parametrize("make", [later, succ], ids=["later", "succ"])
    def test_a_thunk_that_is_neither_code_nor_a_bind_pair_raises_at_its_step_each_run(
            self, make, thunk):
        # A non-callable thunk other than a tuple or a ``Delay`` is built, and raises when stepped.
        with pytest.raises(TypeError):
            make(thunk).rest()
        x = bind(lambda _: make(thunk), delay_by(0, 2))
        assert isinstance(run_for(x, 2), Exhausted)
        for _ in range(2):
            with pytest.raises(TypeError):
                run_for(x, 10)
        with pytest.raises(TypeError):
            observe(x, 10)

    @pytest.mark.parametrize("thunk", [
        lambda make: (1, 2), lambda make: (), lambda make: (now(1), now),
        lambda make: (delay_by(0, 1), now, now), lambda make: (make((1, 2)), now),
        lambda make: (later(lambda: now(1)), None), lambda make: (delay_by(5, 3), None),
        lambda make: (delay_by(0, 1), now),
        lambda make: (make((delay_by(5, 3), None)), now), lambda make: (make((never(), None)), now),
    ], ids=["pair-of-ints", "empty", "now-head", "triple", "bad-inner-head",
            "no-continuation-head-to-value", "no-continuation-head-to-later", "bind-shaped",
            "inner-no-continuation-head-to-later", "inner-no-continuation-never"])
    @pytest.mark.parametrize("make", [later, succ], ids=["later", "succ"])
    def test_a_tuple_thunk_is_refused_when_its_node_is_built(self, make, thunk):
        # A plain tuple cell is a bind's, which only ``bind`` stores, so a node is
        # refused a tuple as it is built, and so is a node nested in the tuple.
        refused = "a Later is built from a step closure or a Delay, not a tuple$"
        with pytest.raises(TypeError, match=refused):
            make(thunk(make))
        # A continuation that builds one raises at the step that calls it, on every run.
        x = bind(lambda _: make(thunk(make)), delay_by(0, 2))
        assert isinstance(run_for(x, 1), Exhausted)
        for fuel in (2, 10):
            with pytest.raises(TypeError, match=refused):
                run_for(x, fuel)
        with pytest.raises(TypeError, match=refused):
            observe(x, 10)

    def test_an_unfold_step_that_is_neither_again_nor_done_raises_at_its_step(self):
        # The first step is taken when the unfold is built.
        with pytest.raises(TypeError, match="expected Again or Done, got int$"):
            unfold(0, lambda s: 5)
        x = unfold(0, lambda s: Again(s + 1) if s < 3 else 5)
        assert isinstance(run_for(x, 2), Exhausted)
        with pytest.raises(TypeError, match="expected Again or Done, got int$"):
            run_for(x, 10)
        with pytest.raises(RuntimeError, match="cannot resume"):
            run_for(x, 10)

    def test_a_finite_state_step_that_is_neither_again_nor_done_raises(self):
        with pytest.raises(TypeError, match="expected Again or Done, got int$"):
            diverges_finite_state(0, lambda s: 5, 10)
        with pytest.raises(TypeError, match="expected Again or Done, got NoneType$"):
            diverges_finite_state(0, lambda s: Again(s + 1) if s < 3 else None, 10)


class Calls:
    """Counts the calls of each continuation by key."""

    def __init__(self):
        self.by_key = {}

    def tick(self, key):
        self.by_key[key] = self.by_key.get(key, 0) + 1


class Interrupt(Exception):
    pass


def counted_loop(n, calls, raise_at=None, k=0):
    """``n`` after ``n`` steps, as ``delay_by(k, 1) >>= (lambda _: loop(k + 1))``;
    continuation ``k`` is counted in ``calls``, and the first call of
    continuation ``raise_at`` raises ``Interrupt``."""

    def cont(_):
        calls.tick(k)
        if k == raise_at and calls.by_key[k] == 1:
            raise Interrupt
        return counted_loop(n, calls, raise_at, k + 1)

    return now(n) if k == n else bind(cont, delay_by(k, 1))


def tagged_chain(tags, i=0):
    """One closure step per tag, a successor where the tag is true."""
    if i == len(tags):
        return now(None)
    return (succ if tags[i] else step)(lambda: tagged_chain(tags, i + 1))


def tagged_runs(tags):
    """The same steps as ``tagged_chain``, as runs of each class joined by binds."""
    x = now(None)
    i = len(tags)
    while i:
        j = i
        while j and tags[j - 1] == tags[i - 1]:
            j -= 1
        run = lazy_of(i - j) if tags[i - 1] else delay_by(None, i - j)
        x = lazy_plus(x, run)
        i = j
    return x


class TestOneCut:
    """``_skip`` cuts consecutive nodes of its node's class in one loop."""

    def test_a_cut_spans_bind_nodes_and_a_shorter_recut_reads_a_prefix(self):
        calls = Calls()
        x = counted_loop(10, calls)
        rest, k = _skip(x, 7)
        assert k == 7 and calls.by_key == {i: 1 for i in range(7)}
        assert run_for(rest, 100) == Converged(10, 3)
        middle, k = _skip(x, 3)
        assert k == 3 and run_for(middle, 100) == Converged(10, 7)
        assert calls.by_key == {i: 1 for i in range(10)}

    def test_an_exception_mid_cut_keeps_the_steps_before_it(self):
        calls = Calls()
        x = counted_loop(10, calls, raise_at=4)
        with pytest.raises(Interrupt):
            run_for(x, 100)
        assert calls.by_key == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
        assert run_for(x, 100) == run_for(x, 100) == Converged(10, 10)
        assert calls.by_key == {i: 1 for i in range(10)} | {4: 2}

    def test_a_cut_that_meets_its_first_node_in_a_bind_runs_it_once(self):
        # The first node is memoised only when the cut ends, so the cut ends
        # before a node whose bind spine reaches it.
        calls = Calls()

        def closure():
            calls.tick("closure")
            return bind(lambda v: calls.tick("cont") or now(v), x)

        x = later(closure)
        assert isinstance(run_for(x, 10), Exhausted)
        assert calls.by_key == {"closure": 1}
        assert isinstance(run_for(x, 10), Exhausted)
        assert calls.by_key == {"closure": 1}

    def test_a_cut_that_meets_its_first_bind_node_deeper_in_a_spine_runs_it_once(self):
        calls = Calls()

        def cont(v):
            calls.tick("cont")
            return bind(now, bind(now, x))

        x = bind(cont, delay_by(0, 1))
        assert isinstance(run_for(x, 10), Exhausted)
        assert calls.by_key == {"cont": 1}

    @given(st.lists(st.booleans(), max_size=30), st.integers(0, 40),
           st.sampled_from([tagged_chain, tagged_runs]))
    def test_observe_counts_only_the_successor_steps_of_a_cut(self, tags, fuel, build):
        ended = Ended.ZERO if fuel >= len(tags) else Ended.EXHAUSTED
        assert observe(build(tags), fuel) == (sum(tags[:fuel]), ended)


class TestPairing:
    def test_strength_keeps_right_steps(self):
        assert run_for(strength(1, delay_by(2, 2)), 2) == Converged((1, 2), 2)

    def test_strength_of_never(self):
        assert isinstance(run_for(strength(1, never()), 1000), Exhausted)

    def test_strength_projection_instance(self):
        y = delay_by(5, 1)
        lhs = fmap(lambda p: p[1], strength((), y))
        assert run_for(lhs, 1) == run_for(y, 1)

    def test_strict_pair_step_sum(self):
        # x's steps first, then y's: 2 + 3 = 5
        r = run_for(strict_pair(delay_by(1, 2), delay_by(2, 3)), 5)
        assert r == Converged((1, 2), 5)

    def test_strict_pair_left_never(self):
        assert isinstance(run_for(strict_pair(never(), now(0)), 1000), Exhausted)

    def test_strict_pair_immediate(self):
        assert run_for(strict_pair(now(1), now(2)), 0) == Converged((1, 2), 0)

    def test_strict_tuple_empty(self):
        assert run_for(strict_tuple([]), 0) == Converged((), 0)

    def test_strict_proj_immediate(self):
        r = run_for(strict_proj(2, [now(1), now(2), now(3)]), 0)
        assert r == Converged(2, 0)

    def test_strict_proj_strict_in_others(self):
        assert isinstance(run_for(strict_proj(1, [now(1), never()]), 1000), Exhausted)

    def test_strict_proj_collects_all_steps(self):
        r = run_for(strict_proj(1, [delay_by(1, 1), delay_by(2, 1)]), 2)
        assert r == Converged(1, 2)

    def test_strict_proj_bad_index(self):
        with pytest.raises(IndexError):
            strict_proj(3, [now(1), now(2)])
        with pytest.raises(IndexError):
            strict_proj(0, [now(1)])

    def test_strict_proj_non_integer_index_raises_at_the_call(self):
        # Not when the run reaches the projection.
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            strict_proj(1.0, [delay_by(5, 2)])

    @given(finite_delays(), finite_delays())
    @settings(max_examples=100)
    def test_strict_pair_counts(self, x, y):
        rx, ry = converged(x, 64), converged(y, 64)
        r = converged(strict_pair(x, y), 64)
        assert r == Converged((rx.value, ry.value), rx.steps + ry.steps)


class TestRace:
    def test_never_on_left_yields_right(self):
        assert run_for(race(never(), delay_by(7, 3)), 3) == Converged(7, 3)

    def test_left_bias_on_tie(self):
        assert run_for(race(delay_by(1, 2), delay_by(2, 2)), 2) == Converged(1, 2)

    def test_immediate_left_winner(self):
        assert run_for(race(now(5), never()), 0) == Converged(5, 0)

    def test_both_never(self):
        assert isinstance(run_for(race(never(), never()), 1000), Exhausted)

    @given(finite_delays(), finite_delays())
    @settings(max_examples=100)
    def test_winner_is_one_of_the_racers(self, x, y):
        r = converged(race(x, y), 64)
        values = {converged(x, 64).value, converged(y, 64).value}
        assert r.value in values

    @given(finite_delays())
    @settings(max_examples=100)
    def test_race_never_right_identity(self, y):
        ry = converged(y, 64)
        assert converged(race(never(), y), 64).value == ry.value
        assert converged(race(y, never()), 64).value == ry.value


class TestParallelSearch:
    def test_eventually_convergent(self):
        f = lambda n: now(9) if n >= 3 else never()
        # regression constant: hand-run of the aux schedule
        assert run_for(parallel_search(f), 64) == Converged(9, 4)

    def test_all_never(self):
        assert isinstance(
            run_for(parallel_search(lambda n: never()), 2000), Exhausted
        )

    def test_constant_sequence(self):
        r = converged(parallel_search(lambda n: now(13)), 64)
        assert r.value == 13

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=8))
    @settings(max_examples=50)
    def test_value_attained_by_some_entry(self, j, d):
        f = lambda n: delay_by(n, d) if n >= j else never()
        r = converged(parallel_search(f), 256)
        assert f(r.value) is not None
        assert converged(f(r.value), 64).value == r.value


class TestRaceGenerator:
    """A race's rounds, like an unfold's steps, are one generator, cut in bulk by ``_drop``."""

    @pytest.mark.parametrize("kind", ["entrant", "racer", "unfold"])
    def test_an_exception_in_a_cut_closes_the_race(self, kind):
        # Raised in round 4 of a 100-step cut, by the entrant f(3), by the
        # second racer's step or by an unfold's fourth call of its step: a
        # second run must raise "cannot resume" and must not call the
        # raising code, or the unfold's step, again.
        calls, stepped = [], []

        def boom(n):
            calls.append(n)
            raise KeyError(n)

        def step(k):
            stepped.append(k)
            return boom(k) if len(stepped) == 4 else Done(k) if k == 10 else Again(k + 1)

        if kind == "entrant":
            d = parallel_search(lambda n: boom(n) if n == 3 else never())
        elif kind == "racer":
            d = race(delay_by(1, 10), bind(boom, delay_by(0, 4)))
        else:
            d = unfold(0, step)
        with pytest.raises(KeyError):
            run_for(d, 100)
        assert calls == ([0] if kind == "racer" else [3])
        with pytest.raises(RuntimeError, match="cannot resume"):
            run_for(d, 100)
        assert len(calls) == 1 and len(stepped) == (4 if kind == "unfold" else 0)


def generator_resumes(run):
    """``run()`` and the number of resumes of ``delay``'s generators during
    it, each first run to its first ``yield`` included."""
    resumes = 0

    def profile(frame, event, arg):
        nonlocal resumes
        code = frame.f_code
        if (event == "call" and code.co_flags & inspect.CO_GENERATOR
                and code.co_filename == delay.__file__):
            resumes += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(outer)
    return result, resumes


class TestRaceResumes:
    """A race or a search is an ``unfold`` of its rounds: a cut runs as many
    rounds as its budget allows in one resume."""

    def test_a_race_is_cut_in_one_resume(self):
        result, resumes = generator_resumes(
            lambda: run_for(race(delay_by(0, 1000), delay_by(1, 1001)), 10**4))
        assert result == Converged(0, 1000)
        assert resumes <= 2

    def test_a_search_is_cut_in_one_resume(self):
        result, resumes = generator_resumes(lambda: run_for(
            parallel_search(lambda n: delay_by(n, 500 - n) if n < 3 else never()), 10**4))
        assert result == Converged(0, 501)
        assert resumes <= 2


class TestRaceCuts:
    """A cut of a race or search steps no racer past the winning round."""

    def test_a_racer_is_not_stepped_past_the_winner(self):
        # The round-by-round race calls ``step`` 4 times: once as the unfold
        # is built, then once per round.
        calls = []

        def step(k):
            calls.append(k)
            return Done(k) if k == 0 else Again(k - 1)

        assert run_for(race(unfold(10**6, step), delay_by(7, 3)), 10**7) == Converged(7, 3)
        assert len(calls) == 4

    def test_a_losing_continuation_past_the_winning_round_is_not_run(self):
        # The left racer's continuation would run in round 5; the right
        # racer converges in round 4.
        x = bind(lambda _: now(1 // 0), delay_by(0, 5))
        assert run_for(race(x, delay_by(1, 4)), 10**6) == Converged(1, 4)

    def test_a_cut_calls_no_entrant_past_the_winning_round(self):
        calls = []

        def f(k):
            calls.append(k)
            return delay_by(k, 5) if k == 3 else delay_by(k, 40)

        assert run_for(parallel_search(f), 10**6) == Converged(3, 9)
        assert calls == list(range(9))


class TestStepAdditivity:
    @given(finite_delays(), st.integers(min_value=0, max_value=16))
    @settings(max_examples=100)
    def test_resume_equals_longer_run(self, x, n):
        full = run_for(x, 64)
        first = run_for(x, n)
        if isinstance(first, Converged):
            assert first == full
        else:
            rest = run_for(first.rest, 64)
            assert isinstance(rest, Converged)
            assert rest.value == full.value
            assert rest.steps + n == full.steps


def cells(*heads):
    """Every node cell reachable from ``heads`` through forced tails, runs
    and bind heads; a closure or a generator ends a path."""
    seen, todo = set(), list(heads)
    while todo:
        x = todo.pop()
        if not isinstance(x, delay.Later) or id(x) in seen:
            continue
        seen.add(id(x))
        t = x._thunk
        yield t
        if type(t) is delay._Run:
            todo.append(t[1])
        elif type(t) is tuple:
            todo.append(t[0])
        elif isinstance(t, Delay):
            todo.append(t)


def right_loop(n, s, v):
    """``v`` after ``n`` rounds of ``delay_by(k, s) >>= (lambda _: loop(k - 1))``."""
    return now(v) if n == 0 else bind(lambda _: right_loop(n - 1, s, v), delay_by(n, s))


def left_loop(n, s):
    """``n`` after ``n`` binds nested to the left over ``delay_by(0, s)``."""
    x = delay_by(0, s)
    for _ in range(n):
        x = bind(lambda v: delay_by(v + 1, s), x)
    return x


class Odd(Delay):
    """A ``Delay`` that is neither a ``Now`` nor a ``Later``."""

    __slots__ = ()

    def __init__(self):
        pass


class TestOneStepNodes:
    """A node of one step holds its rest in its cell, as a one-step cut leaves
    it; so every run in a cell is of two steps or more."""

    @pytest.mark.parametrize("make", [
        lambda: delay_by(7, 1),
        lambda: lazy_of(1),
        lambda: cnest(0, 1),
        lambda: run_for(delay_by(7, 3), 2).rest,
    ], ids=["delay_by", "lazy_of", "cnest", "delay_by-3-cut-by-2"])
    def test_a_one_step_node_holds_its_rest(self, make):
        x = make()
        assert isinstance(x, delay.Later) and type(x._thunk) is Now
        assert x.rest() is x._thunk
        assert run_for(x, 1).steps == 1

    def test_a_bind_node_holds_a_plain_pair_until_its_cut(self):
        f = lambda _: delay_by(1, 3)
        assert type(f(0)._thunk) is delay._Run
        for head in (delay_by(0, 1), lazy_of(1)):
            x = bind(f, head)
            assert type(x) is type(head) and type(x._thunk) is tuple
            assert x._thunk[0] is head and x._thunk[1] is f and len(x._thunk) == 2
            rest = run_for(x, 1).rest
            assert x._thunk is rest and type(rest._thunk) is delay._Run
            assert run_for(x, 10) == Converged(1, 4)

    def test_a_run_cut_short_keeps_what_it_holds(self):
        x = delay_by(7, 3)
        rest = run_for(x, 2).rest
        assert type(x._thunk) is delay._Run and x._thunk[0] == 3
        assert type(rest) is delay.Later and rest._thunk.value == 7
        assert run_for(x, 3) == Converged(7, 3) and run_for(rest, 1) == Converged(7, 1)

    def test_no_cell_holds_a_run_of_fewer_than_two_steps_after_any_cut(self):
        makers = [lambda s=s: delay_by(5, s) for s in range(5)]
        makers += [lambda s=s: lazy_of(s) for s in range(5)]
        makers += [lambda s=s: cnest(s % 2, s // 2) for s in range(6)]
        makers += [lambda s=s: right_loop(4, s, 9) for s in range(4)]
        makers += [lambda s=s: left_loop(4, s) for s in range(4)]
        makers += [lambda s=s: fmap(str, fmap(abs, delay_by(-3, s))) for s in range(4)]
        makers += [lambda s=s: strict_pair(delay_by(1, s), right_loop(2, s, 0)) for s in range(4)]
        makers += [lambda s=s: race(delay_by(1, s + 1), delay_by(2, 2 * s)) for s in range(4)]
        makers += [lambda s=s: unfold(s, lambda k: Again(k - 1) if k else now(0)) for s in range(4)]
        for make in makers:
            total = run_for(make(), 100).steps
            for fuel in range(total + 2):
                x = make()
                heads = [x]
                r = run_for(x, fuel)
                while isinstance(r, Exhausted):
                    heads.append(r.rest)
                    r = run_for(r.rest, 1)
                r = run_for(x, fuel // 2)
                if isinstance(r, Exhausted):
                    heads.append(r.rest)
                runs = [t for t in cells(*heads) if type(t) is delay._Run]
                assert all(n >= 2 for n, _ in runs), (total, fuel, runs)


class TestDirectFeed:
    """A bind's head cut to a value is fed to one continuation with ``bind``'s checks."""

    @pytest.mark.parametrize("got, name", [(lambda v: [v], "list"), (lambda v: Odd(), "Odd")],
                             ids=["list", "Odd"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("nested", [False, True], ids=["one", "tree"])
    def test_a_continuation_that_returns_no_now_or_later_raises_at_its_step_each_run(
            self, got, name, steps, nested):
        x = bind(got, delay_by(0, steps))
        if nested:
            x = bind(now, x)
        with pytest.raises(TypeError, match=f"expected a Delay, got {name}$"):
            bind(got, now(0))
        assert isinstance(run_for(x, steps - 1), Exhausted)
        for _ in range(2):
            with pytest.raises(TypeError, match=f"expected a Delay, got {name}$"):
                run_for(x, steps + 5)

    @pytest.mark.parametrize("make", [now, lambda v: delay_by(v, 2), lambda v: succ(now(v)),
                                      lambda v: step(lambda: now(v))],
                             ids=["now", "delay_by", "succ", "step"])
    def test_a_continuation_may_return_any_now_or_later(self, make):
        x = bind(make, delay_by(3, 1))
        want = run_for(bind(make, now(3)), 10)
        assert run_for(x, 10) == Converged(want.value, want.steps + 1)


class TestBindLoopSteps:
    """Right- and left-nested bind loops over ``delay_by(k, s)``, at every
    fuel up to three times their steps, each ``Exhausted`` rest resumed."""

    @pytest.mark.parametrize("s", range(4))
    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_step_counts(self, side, n, s):
        make, value, total = ((lambda: right_loop(n, s, 11), 11, n * s) if side == "right"
                              else (lambda: left_loop(n, s), n, (n + 1) * s))
        kept = make()
        for fuel in range(3 * total + 1):
            for x in (make(), kept):
                r = run_for(x, fuel)
                if fuel >= total:
                    assert r == Converged(value, total)
                    continue
                assert isinstance(r, Exhausted)
                for more in range(total - fuel + 2):
                    again = run_for(r.rest, more)
                    if more >= total - fuel:
                        assert again == Converged(value, total - fuel)
                    else:
                        assert isinstance(again, Exhausted)

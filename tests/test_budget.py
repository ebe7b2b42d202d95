"""The one budget carrier: `budget.scope` and the deadline every engine polls through `budget.active()`."""

import importlib
import inspect
import math
import pkgutil
import re

import pytest

import slinv
from helpers import CountingDeadline
from slinv.budget import BudgetExhausted, Deadline, active, record, scope, tally
from slinv.kron import sl_invariant_bound
from slinv.latin import signed_latin_squares


@pytest.mark.parametrize("inner", [None, 60, Deadline(None), Deadline(60)],
                         ids=["none", "60", "deadline-none", "deadline-60"])
def test_an_inner_scope_never_loosens_an_expired_outer_one(inner):
    with scope(-1):
        with scope(inner):
            with pytest.raises(BudgetExhausted):
                active().check()
            with pytest.raises(BudgetExhausted):
                signed_latin_squares(4)


def test_an_inner_scope_with_an_earlier_deadline_wins_and_ends_with_its_block():
    with scope(60):
        outer = active()
        with scope(-1):
            with pytest.raises(BudgetExhausted):
                signed_latin_squares(4)
        assert active() is outer
        assert signed_latin_squares(4) == 576


def test_without_an_enclosing_scope_the_given_deadline_is_the_one_polled():
    assert active().at is None  # no limit outside every scope
    given = Deadline(None)
    with scope(given):
        assert active() is given
    with scope(-1):
        inner = Deadline(None)
        with scope(inner):
            assert active() is not inner  # the expired outer deadline is earlier


def test_a_nan_budget_is_refused():
    with pytest.raises(ValueError):
        with scope(math.nan):
            pass
    with pytest.raises(ValueError):
        Deadline(math.nan)


def _modules():
    return [importlib.import_module(f"slinv.{info.name}") for info in pkgutil.iter_modules(slinv.__path__)]


def _parameters(code):
    """(name, parameter names) of the function compiled to `code` and of every function defined inside it."""
    count = code.co_argcount + code.co_kwonlyargcount
    count += bool(code.co_flags & inspect.CO_VARARGS) + bool(code.co_flags & inspect.CO_VARKEYWORDS)
    yield code.co_name, code.co_varnames[:count]
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _parameters(const)


def test_no_function_takes_a_deadline():
    # every function, method, nested function and lambda of the package: the budget travels only by scope
    takers = [f"{module.__name__}.{name}" for module in _modules()
              for name, params in _parameters(compile(inspect.getsource(module), module.__file__, "exec"))
              if "deadline" in params]
    assert takers == []


def test_only_the_budget_module_constructs_a_deadline_and_only_the_cli_opens_a_scope():
    sources = {module.__name__: inspect.getsource(module) for module in _modules()}
    assert [name for name, text in sources.items() if re.search(r"\bDeadline\(", text)] == ["slinv.budget"]
    opened = {name: len(re.findall(r"\bwith scope\(", text)) for name, text in sources.items()}
    assert {name: count for name, count in opened.items() if count and name != "slinv.budget"} == {"slinv.cli": 1}


def test_no_function_takes_stats_and_no_result_type_carries_pivots():
    # a verb's work travels only in its scope's record: no engine takes a stats dict or returns its work
    takers = [f"{module.__name__}.{name}" for module in _modules()
              for name, params in _parameters(compile(inspect.getsource(module), module.__file__, "exec"))
              if "stats" in params]
    assert takers == []
    results = [cls for module in _modules() for cls in vars(module).values()
               if inspect.isclass(cls) and issubclass(cls, tuple) and hasattr(cls, "_fields")]  # NamedTuples
    assert {"FeasibilityResult", "SupportCertificate"} <= {cls.__name__ for cls in results}
    carriers = [cls.__name__ for cls in results if "pivots" in cls._fields]
    assert carriers == []


def test_the_innermost_scope_gets_the_counts_and_an_enclosing_record_is_unchanged():
    with scope() as outer:
        tally(states=2)
        with scope() as inner:
            assert signed_latin_squares(4) == 576
            tally(states=1)
            assert record() is inner
        assert record() is outer
    assert outer == {"states": 2}
    assert inner == {"states": 20 + 1, "peak_states": 18, "candidates": 24, "subtrees": 1}


def test_outside_every_scope_the_value_is_the_same_and_no_counts_are_kept():
    before = record()
    assert signed_latin_squares(4) == 576
    tally(states=1)
    assert before == {} and record() == {} and record() is not record()


@pytest.mark.parametrize("count, cap, finished", [
    (lambda: signed_latin_squares(6), 58, 9_522),  # of its 116 polls, as a run to the end makes them
    (lambda: sl_invariant_bound(3, 2, 8), 600, 1_178_888),  # of 1,234
], ids=["squares-6", "sl-bound-3-2-8"])
def test_a_run_the_deadline_stops_keeps_the_work_it_did(count, cap, finished):
    with scope(CountingDeadline(cap=cap)) as work, pytest.raises(BudgetExhausted):
        count()
    assert 0 < work["states"] < finished and work["peak_states"] > 0

import pytest

from hypertest.budget import (
    DEFAULT_BUDGET,
    ENV_VAR,
    BudgetError,
    check_budget,
    check_power_budget,
    current_budget,
    exact_or_heuristic,
    limit,
)


def test_default_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert current_budget() == DEFAULT_BUDGET


def test_env_override(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv(ENV_VAR, "123")
    assert current_budget() == 123
    with limit(9):
        assert current_budget() == 9
    assert current_budget() == 123


def test_nested_limits_restore_the_outer_value(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(ENV_VAR, raising=False)
    with limit(50):
        with limit(7):
            assert current_budget() == 7
            with pytest.raises(BudgetError) as err:
                check_budget("inner", 8)
            assert err.value.budget == 7
        assert current_budget() == 50
        with pytest.raises(ZeroDivisionError):
            with limit(3):
                raise ZeroDivisionError
        assert current_budget() == 50
    assert current_budget() == DEFAULT_BUDGET


def test_limit_none_inherits(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv(ENV_VAR, "77")
    with limit(None):
        assert current_budget() == 77
    with limit(12), limit(None):
        assert current_budget() == 12


@pytest.mark.parametrize("bad", [0, -3])
def test_limit_rejects_nonpositive(bad: int) -> None:
    with pytest.raises(ValueError, match="budget must be positive"):
        with limit(bad):
            pass


def test_env_applies_outside_any_limit(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv(ENV_VAR, "5")
    with limit(100):
        check_budget("inside", 100)
    with pytest.raises(BudgetError) as err:
        check_budget("outside", 100)
    assert err.value.budget == 5


def test_env_rejects_garbage(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv(ENV_VAR, "lots")
    with pytest.raises(ValueError):
        current_budget()
    monkeypatch.setenv(ENV_VAR, "-4")
    with pytest.raises(ValueError):
        current_budget()


def test_check_budget_raises_with_details(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(ENV_VAR, raising=False)
    check_budget("small", 10)
    with pytest.raises(BudgetError) as err:
        check_budget("huge enumeration", DEFAULT_BUDGET + 1)
    assert err.value.stage == "huge enumeration"
    assert err.value.needed == DEFAULT_BUDGET + 1
    assert err.value.budget == DEFAULT_BUDGET
    assert ENV_VAR in str(err.value) and "budget.limit" in str(err.value)


def test_a_count_past_the_int_to_str_limit_is_named_by_its_power_of_two() -> None:
    # str() refuses ints of more than 4300 digits by default
    needed = 3 ** 10_000
    err = BudgetError("huge enumeration", needed, DEFAULT_BUDGET)
    assert err.needed == needed
    assert str(err).startswith(
        f"huge enumeration: enumeration needs at least 2^{needed.bit_length() - 1} items")
    assert str(BudgetError("small", 12, 10)).startswith("small: enumeration needs 12 items")


def _outcome(check, *args):
    try:
        check(*args)
    except BudgetError as err:
        return err.stage, err.needed, err.budget
    return None


@pytest.mark.parametrize("budget", [1, 7, 64, 1000, 2**20 - 1])
def test_power_budget_agrees_with_the_built_power(budget: int) -> None:
    with limit(budget):
        for base in range(0, 12):
            for exponent in range(0, 25):
                assert _outcome(check_power_budget, "powers", base, exponent) == _outcome(
                    check_budget, "powers", base ** exponent)


def test_power_budget_refuses_a_huge_power_unbuilt() -> None:
    # 4 ** (10 ** 200) has 2 * 10**200 bits: building it would never end
    with limit(DEFAULT_BUDGET), pytest.raises(BudgetError) as err:
        check_power_budget("product law expansion", 4, 10**200)
    assert (err.value.needed, err.value.budget) == (2**2**16, DEFAULT_BUDGET)
    assert str(err.value).startswith(
        "product law expansion: enumeration needs at least 2^65536 items")
    # 1 ** anything is one item, 0 ** anything but 0 is none
    with limit(1):
        check_power_budget("ones", 1, 10**200)
        check_power_budget("zeros", 0, 10**200)
    # up to 2^16 bits the power is built and counted exactly; past them
    # its count is that many bits, a lower bound
    for exponent, needed in ((2**16 - 1, 2**(2**16 - 1)), (2**16, 2**2**16),
                             (2**16 + 1, 2**2**16)):
        with limit(DEFAULT_BUDGET), pytest.raises(BudgetError) as err:
            check_power_budget("edge", 2, exponent)
        assert err.value.needed == needed


def _recorder(calls: list[str], name: str, refuse: bool = False):
    def run() -> str:
        calls.append(name)
        if refuse:
            raise BudgetError(name, 2, 1)
        return name + " result"

    return run


@pytest.mark.parametrize(
    "mode, refuse, ran, calls",
    [
        ("exact", False, "exact", ["exact"]),
        ("heuristic", False, "heuristic", ["heuristic"]),
        ("auto", False, "exact", ["exact"]),
        ("auto", True, "heuristic", ["exact", "heuristic"]),
    ],
)
def test_exact_or_heuristic_runs_and_reports(mode, refuse, ran, calls) -> None:
    seen: list[str] = []
    result = exact_or_heuristic(
        mode, _recorder(seen, "exact", refuse), _recorder(seen, "heuristic")
    )
    assert result == (ran + " result", ran)
    assert seen == calls


def test_exact_mode_does_not_fall_back() -> None:
    seen: list[str] = []
    with pytest.raises(BudgetError):
        exact_or_heuristic("exact", _recorder(seen, "exact", True),
                           _recorder(seen, "heuristic"))
    assert seen == ["exact"]


def test_auto_propagates_other_errors() -> None:
    seen: list[str] = []

    def broken() -> str:
        seen.append("exact")
        raise ZeroDivisionError("not a refusal")

    with pytest.raises(ZeroDivisionError):
        exact_or_heuristic("auto", broken, _recorder(seen, "heuristic"))
    assert seen == ["exact"]


def test_auto_falls_back_under_a_limit(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(ENV_VAR, raising=False)

    def exact() -> str:
        check_budget("exact sweep", 1000)
        return "exact result"

    with limit(999):
        assert exact_or_heuristic("auto", exact, lambda: "fallback") == ("fallback", "heuristic")
    assert exact_or_heuristic("auto", exact, lambda: "fallback") == ("exact result", "exact")


def test_unknown_mode_is_named() -> None:
    seen: list[str] = []
    with pytest.raises(ValueError, match="'exhaustive'"):
        exact_or_heuristic("exhaustive", _recorder(seen, "exact"),
                           _recorder(seen, "heuristic"))
    assert seen == []

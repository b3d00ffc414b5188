"""The integer checks in ncample.errors, the one home of the rule that an int
is an int: bools, floats and anything else raise ParseError."""

import pytest

from ncample.errors import ParseError, exact_int, exact_ints, int_tuple, strict_int

NOT_INTS = (True, False, 1.0, 2.5, None, "x", "1/2", [1])


def message(call):
    with pytest.raises(ParseError) as info:
        call()
    return str(info.value)


class TestStrictInt:
    def test_ints_and_spelled_ints(self):
        assert strict_int(3, "n") == 3
        assert strict_int("-4", "n") == -4

    def test_rejects(self):
        for value in NOT_INTS:
            assert message(lambda: strict_int(value, "n")) == \
                f"n must be an integer, got {value!r}"


class TestIntTuple:
    def test_all_ints_come_back_equal(self):
        assert int_tuple([1, -2, 0], "entry") == (1, -2, 0)
        assert int_tuple((), "entry") == ()

    def test_spelled_ints_are_read(self):
        assert int_tuple([1, "2"], "entry") == (1, 2)

    def test_first_bad_entry_named(self):
        for value in NOT_INTS:
            assert message(lambda: int_tuple([1, value, 2.5], "entry")) == \
                f"entry must be an integer, got {value!r}"

    def test_only_lists_and_tuples_are_arrays(self):
        # a string or an object would be read entry by entry, digit by digit
        # or key by key
        for value in ("10", {"10": 0}, b"10", 10, None, range(2)):
            assert message(lambda: int_tuple(value, "entry")) == \
                f"expected a JSON array of integers for entry, got {value!r}"


class TestExactInt:
    def test_ints_pass(self):
        assert exact_int(-3, "n") == -3
        assert exact_int(2, "n", at_least=2) == 2

    def test_rejects_non_ints(self):
        for value in NOT_INTS + ("3",):
            assert message(lambda: exact_int(value, "n")) == \
                f"n must be an integer, got {value!r}"
            assert message(lambda: exact_int(value, "n", at_least=0)) == \
                f"n must be an integer >= 0, got {value!r}"

    def test_below_bound(self):
        assert message(lambda: exact_int(0, "n", at_least=1)) == \
            "n must be an integer >= 1, got 0"


class TestExactInts:
    def test_all_ints_come_back_equal(self):
        assert exact_ints([3, 1, 2], "entry") == (3, 1, 2)
        assert exact_ints(range(3), "entry", length=3, at_least=0) == (0, 1, 2)
        assert exact_ints((), "entry", length=0, at_least=1) == ()

    def test_first_bad_entry_named(self):
        for value in NOT_INTS + ("3",):
            assert message(lambda: exact_ints([1, value, 2.5], "entry")) == \
                f"entry must be an integer, got {value!r}"

    def test_below_bound(self):
        assert message(lambda: exact_ints([2, 0, -1], "entry", at_least=1)) == \
            "entry must be an integer >= 1, got 0"

    def test_wrong_length(self):
        assert message(lambda: exact_ints([1, 2], "entry", length=3)) == \
            "entry count must be 3, got 2"

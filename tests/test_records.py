"""The record base on classes of its own: fields, construction, immutability,
equality, hash and repr. Only ``ebring.records`` is used, so the module runs
against that one file on any supported interpreter."""

import pytest

from ebring.records import Record


class Point(Record):
    """A docstring and methods stay as the class defines them."""
    x: int
    y: object

    def norm(self):
        return abs(self.x) + abs(self.y)


class Pair(Record):
    x: int
    y: object


def test_fields_are_the_annotated_names_in_order():
    assert Point._fields == ("x", "y")
    p = Point(1, y=-2)
    assert (p.x, p.y, p.norm()) == (1, -2, 3)
    assert Point(y=-2, x=1) == p
    assert Point.__doc__.startswith("A docstring")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1,), {}), ((1, 2, 3), {}), ((), {"x": 1}),
    ((1,), {"x": 1, "y": 2}), ((1, 2), {"y": 2}), ((1, 2), {"z": 3}), ((), {"x": 1, "z": 2})])
def test_a_missing_unknown_or_repeated_field_is_refused(args, kwargs):
    with pytest.raises(TypeError, match="Point"):
        Point(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    p = Point(1, 2)
    with pytest.raises(AttributeError, match="'x'"):
        p.x = 3
    with pytest.raises(AttributeError, match="'z'"):
        p.z = 3
    with pytest.raises(AttributeError, match="'y'"):
        del p.y
    assert p == Point(1, 2) and not hasattr(p, "z")


def test_equal_records_are_of_one_class_and_hash_as_their_fields():
    assert Point(1, (2, 3)) == Point(1, (2, 3))
    assert hash(Point(1, (2, 3))) == hash(Point(1, (2, 3))) == hash((1, (2, 3)))
    assert Point(1, 2) != Point(2, 1)
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2) != (1, 2)
    assert len({Point(1, 2), Point(1, 2), Pair(1, 2)}) == 2
    with pytest.raises(TypeError):
        hash(Point(1, [2]))


def test_repr_shows_the_fields_in_order():
    assert repr(Point(1, "a")) == "Point(x=1, y='a')"
    assert repr(Pair(Point(1, 2), None)) == "Pair(x=Point(x=1, y=2), y=None)"

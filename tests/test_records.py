"""heatext's value types are records (heatext.records): the dataclass
behaviour they use, pinned on the types themselves."""

import pytest

from heatext.domain import BallHole, RectHole, ThetaBoundary
from heatext.errors import GeometryError
from heatext.records import field, fields, record, replace
from heatext.runconfig import RunConfig
from heatext.solver import MassLedger, PlanarGrid, RadialGrid
from heatext.solver.config import StepperConfig


def test_arguments_bind_by_position_or_keyword_in_field_order():
    by_position = RadialGrid(0.0, 10.0, 64)
    assert by_position == RadialGrid(n_r=64, r_out=10.0, a=0.0)
    assert by_position == RadialGrid(0.0, 10.0, n_r=64, dim=3)
    assert [f.name for f in fields(RadialGrid)] == ["a", "r_out", "n_r", "dim"]
    assert fields(by_position) == fields(RadialGrid)


@pytest.mark.parametrize("args, kwargs, message", [
    ((0.0, 10.0), {}, "missing required argument 'n_r'"),
    ((0.0, 10.0, 64), {"a": 1.0}, "multiple values for argument 'a'"),
    ((0.0, 10.0, 64), {"radius": 1.0}, "unexpected keyword argument 'radius'"),
    ((0.0, 10.0, 64, 3, 1), {}, "takes 4 arguments but 5 were given"),
])
def test_a_missing_duplicate_or_unknown_argument_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        RadialGrid(*args, **kwargs)


def test_each_default_factory_runs_per_instance():
    first, second = MassLedger(), MassLedger()
    assert first.times == [] and first.times is not second.times
    first.append(0.0, 1.0, 0.0)
    assert len(second) == 0
    assert RunConfig().hole == BallHole(1.0)


def test_equality_and_hash_are_by_value_within_one_class():
    assert BallHole(1.0) == BallHole(1.0)
    assert hash(BallHole(1.0)) == hash(BallHole(1.0))
    assert BallHole(1.0) != BallHole(2.0)
    assert BallHole(1.0) != ThetaBoundary(1.0)
    assert len({RectHole(1.0, 2.0), RectHole(1.0, 2.0), RectHole(2.0, 1.0)}) == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(MassLedger())  # a mutable record, like a mutable dataclass


def test_frozen_records_refuse_assignment_and_deletion():
    hole = BallHole(1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'radius'"):
        hole.radius = 2.0
    with pytest.raises(AttributeError, match="cannot delete field 'radius'"):
        del hole.radius
    assert hole.radius == 1.0
    # __post_init__ may still normalise a field, through object.__setattr__
    assert StepperConfig(0.5, [1, 2]).snapshot_times == (1.0, 2.0)


def test_a_frozen_grid_still_caches_its_hole_mask():
    grid = PlanarGrid(half_width=4.0, n=32, hole=BallHole(1.0))
    assert "_hole" not in vars(grid)
    mask = grid.hole_mask()
    assert vars(grid)["_hole"] is mask and grid.hole_mask() is mask


def test_replace_runs_the_checks_again():
    assert replace(BallHole(1.0), radius=2.0) == BallHole(2.0)
    with pytest.raises(GeometryError, match="radius must be positive"):
        replace(BallHole(1.0), radius=-1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        replace(BallHole(1.0), width=2.0)


def test_repr_names_each_field():
    assert repr(RectHole(1.0, 1.0)) == "RectHole(half_width_x=1.0, half_width_y=1.0)"
    assert repr(MassLedger()) == "MassLedger(times=[], masses=[], fluxes=[])"


def test_what_records_do_not_implement_is_refused_when_the_class_is_made():
    with pytest.raises(TypeError, match="take only default and default_factory"):
        field(default=0, repr=False)
    with pytest.raises(TypeError, match="not both"):
        field(default=0, default_factory=int)
    with pytest.raises(TypeError, match="records take no subclasses"):
        class Wider(BallHole):
            pass
    with pytest.raises(TypeError, match="defines __eq__"):
        @record
        class OwnEquality:
            x: float

            def __eq__(self, other):
                return True
    with pytest.raises(TypeError, match="mutable default"):
        @record
        class SharedList:
            items: list = []
    with pytest.raises(TypeError, match="'y' without a default follows"):
        @record
        class Unordered:
            x: float = 0.0
            y: float
    with pytest.raises(TypeError, match="not a record"):
        fields(object())

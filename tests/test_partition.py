import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeschur import ValidationError, build_adaptive_top, build_explicit, build_uniform


class TestBuildUniform:
    def test_power_of_two_hierarchy(self):
        part = build_uniform(1.0, 8, 2)
        assert part.counts == (8, 4, 2, 1)
        assert part.top_level == 3

    def test_single_element_degenerates(self):
        part = build_uniform(1.0, 1, 2)
        assert part.counts == (1,)

    def test_max_levels_cap(self):
        part = build_uniform(3.0, 100, 10, max_levels=2)
        assert part.counts == (100, 10)
        bounds = part.subdomain_bounds(0)
        for i in range(10):
            assert bounds[i] == 10 * i
        assert bounds[-1] == 100

    def test_acceptance_shape(self):
        part = build_uniform(1.0, 10**4, 100)
        assert part.counts == (10**4, 100, 1)

    def test_remainder_absorbed_by_last_subdomain(self):
        part = build_uniform(1.0, 25, 10, max_levels=2)
        assert part.counts == (25, 2)
        bounds = part.subdomain_bounds(0)
        assert list(bounds) == [0, 10, 25]

    @pytest.mark.parametrize("kwargs", [
        dict(t_end=1.0, n0=0, theta=2),
        dict(t_end=1.0, n0=4, theta=1),
        dict(t_end=0.0, n0=4, theta=2),
        dict(t_end=-1.0, n0=4, theta=2),
        dict(t_end=1.0, n0=4, theta=2, max_levels=0),
        dict(t_end=1.0, n0=100, theta=2.5),
        dict(t_end=1.0, n0=100, theta=10.0),
        dict(t_end=1.0, n0=100.5, theta=10),
        dict(t_end=1.0, n0=100, theta=10, max_levels=1.5),
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            build_uniform(**kwargs)

    def test_rebuild_is_idempotent(self):
        a = build_uniform(2.5, 37, 3)
        b = build_uniform(2.5, 37, 3)
        assert a.counts == b.counts
        for ga, gb in zip(a.grids, b.grids):
            assert np.array_equal(ga, gb)


class TestNestedness:
    def test_coarse_points_are_copied_bitwise(self):
        part = build_uniform(np.pi, 60, 4)
        for k in range(1, part.n_levels):
            m = part.aggs[k - 1]
            assert np.array_equal(part.grids[k], part.grids[k - 1][m])

    def test_subdomains_cover_elements_exactly_once(self):
        part = build_uniform(1.0, 97, 7)
        for k in range(part.top_level):
            bounds = part.subdomain_bounds(k)
            covered = []
            for a, b in zip(bounds[:-1], bounds[1:]):
                covered.extend(range(a, b))
            assert covered == list(range(part.counts[k]))

    def test_fine_maps_compose(self):
        part = build_uniform(1.0, 64, 4)
        for k in range(part.n_levels):
            fine = part.fine_nodes(k)
            assert np.array_equal(part.grids[k], part.grids[0][fine])


class TestExplicit:
    def test_explicit_counts(self):
        part = build_explicit([100, 10, 2], t_end=3.0)
        assert part.counts == (100, 10, 2)

    def test_non_uniform_grid_accepted(self):
        grid = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 0.5, 12))])
        part = build_explicit([12, 3], grid=grid)
        assert part.t_end == grid[-1]
        assert np.array_equal(part.grids[0], grid)

    def test_rejects_increasing_counts(self):
        with pytest.raises(ValidationError):
            build_explicit([10, 20], t_end=1.0)

    def test_requires_time_horizon(self):
        with pytest.raises(ValidationError):
            build_explicit([10, 2])

    @pytest.mark.parametrize("build", [
        lambda: build_explicit([40, 4], grid=np.where(np.arange(41) == 7, np.nan,
                                                      np.linspace(0.0, 1.0, 41))),
        lambda: build_explicit([40, 4], grid=np.append(np.linspace(0.0, 1.0, 40), np.inf)),
        lambda: build_explicit([40, 4], t_end=np.inf),
        lambda: build_explicit([40, 4], t_end=np.nan),
        lambda: build_uniform(np.inf, 40, 2),
    ], ids=["nan-node", "inf-grid-end", "inf-t-end", "nan-t-end", "uniform-inf"])
    def test_rejects_non_finite_times(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_leaves_the_callers_grid_writeable(self):
        g = np.linspace(0.0, 1.0, 11)
        part = build_explicit([10, 2], grid=g)
        assert g.flags.writeable
        assert not part.grids[0].flags.writeable
        assert np.array_equal(part.grids[0], g)


class TestAdaptiveTop:
    @pytest.mark.parametrize("n1,expected", [(100, 10), (4, 2), (50, 7)])
    def test_square_root_balance(self, n1, expected):
        part = build_explicit([n1 * 4, n1, 2], t_end=1.0)
        adapted = build_adaptive_top(part)
        assert adapted.counts == (n1 * 4, n1, expected)
        bounds = adapted.subdomain_bounds(1)
        sizes = np.diff(bounds)
        assert sizes.sum() == n1  # remainder absorbed, nothing lost

    def test_requires_two_levels(self):
        with pytest.raises(ValidationError):
            build_adaptive_top(build_uniform(1.0, 1, 2))

    @pytest.mark.parametrize("n0, theta, top", [(250, 100, [0, 2]), (2003, 7, [0, 2, 5])])
    def test_levels_below_the_top_keep_their_bounds(self, n0, theta, top):
        # Uniform ratios whose remainders the quotient rule would spread out.
        part = build_uniform(1.0, n0, theta)
        adapted = build_adaptive_top(part)
        assert adapted.counts[:-1] == part.counts[:-1]
        for k in range(part.top_level - 1):
            assert adapted.subdomain_bounds(k).tobytes() == part.subdomain_bounds(k).tobytes()
            assert adapted.grids[k + 1].tobytes() == part.grids[k + 1].tobytes()
        assert adapted.subdomain_bounds(part.top_level - 1).tolist() == top


@settings(max_examples=40, deadline=None)
@given(n0=st.integers(min_value=1, max_value=400), theta=st.integers(min_value=2, max_value=9))
def test_uniform_invariants(n0, theta):
    part = build_uniform(1.0, n0, theta)
    part.validate()
    assert part.counts[0] == n0
    assert all(a >= b for a, b in zip(part.counts, part.counts[1:]))
    for k in range(1, part.n_levels):
        m = part.aggs[k - 1]
        assert m[0] == 0 and m[-1] == part.counts[k - 1]
        assert np.all(np.diff(m) >= 1)
    if n0 > theta:
        assert part.n_levels >= 2


def _broken(**fields):
    """A two-level partition of 10 elements into 2 with ``fields`` replaced."""
    return replace(build_explicit([10, 2], t_end=1.0), **fields)


@pytest.mark.parametrize("part, text", [
    (_broken(t_end=math.nan), "t_end must be finite and positive, got nan"),
    (_broken(aggs=()), "inconsistent level bookkeeping"),
    (_broken(counts=(0, 2)), "level 0 has no elements"),
    (_broken(counts=(9, 2)), "level 0 grid size mismatch"),
    (_broken(grids=(np.linspace(0.0, 0.9, 11), np.array([0.0, 0.45, 0.9]))),
     "level 0 grid does not span [0, t_end]"),
    (_broken(grids=(np.r_[0.0, 0.2, 0.1, np.linspace(0.3, 1.0, 8)], np.array([0.0, 0.5, 1.0]))),
     "level 0 grid is not strictly increasing"),
    (_broken(aggs=(np.array([0, 5, 9]),)), "aggregation to level 1 misses the endpoints"),
    (_broken(aggs=(np.array([0, 5, 5, 10]),)), "aggregation to level 1 is not strictly increasing"),
    (_broken(grids=(np.linspace(0.0, 1.0, 11), np.array([0.0, 0.55, 1.0]))),
     "level 1 grid is not nested in level 0"),
])
def test_validate_names_each_broken_invariant(part, text):
    with pytest.raises(ValidationError) as info:
        part.validate()
    assert str(info.value) == text


@pytest.mark.parametrize("build, text", [
    (lambda: build_explicit([10, 2], t_end=1.0).subdomain_bounds(1),
     "level 1 has no coarser level"),
    (lambda: build_explicit([4, 0], t_end=1.0), "cannot aggregate 4 elements into 0"),
    (lambda: build_explicit([]), "counts must be non-empty"),
    (lambda: build_explicit([4, 2], grid=np.linspace(0.0, 1.0, 4)),
     "grid must have counts[0] + 1 nodes"),
    (lambda: build_explicit([4, 2], grid=np.linspace(0.5, 1.0, 5)), "grid must start at 0"),
    (lambda: build_explicit([-2], t_end=1.0),
     "the fine count counts[0] must be an integer of at least 1, got -2"),
    (lambda: build_explicit([10.7, 2], t_end=1.0), "counts must be integers, got [10.7, 2]"),
], ids=["top-level-bounds", "empty-level", "no-counts", "grid-size", "grid-start",
        "negative-fine-count", "fractional-count"])
def test_input_errors_name_their_cause(build, text):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == text

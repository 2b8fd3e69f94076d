"""Polynomial feature maps: ordering, width arithmetic, and column values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import (
    expand,
    expand_matrix,
    expanded_dim,
    monomial_index_tuples,
)


class TestOrdering:
    def test_two_vars_degree_two(self):
        assert monomial_index_tuples(2, 2) == [
            (0,),
            (1,),
            (0, 0),
            (0, 1),
            (1, 1),
        ]

    def test_one_var_degree_three(self):
        assert monomial_index_tuples(1, 3) == [(0,), (0, 0), (0, 0, 0)]

    def test_degree_blocks_come_in_order(self):
        tuples = monomial_index_tuples(3, 3)
        degrees = [len(t) for t in tuples]
        assert degrees == sorted(degrees)

    def test_tuples_are_nondecreasing(self):
        for t in monomial_index_tuples(4, 3):
            assert list(t) == sorted(t)


class TestWidth:
    @pytest.mark.parametrize(
        "d,degree,width",
        [(3, 2, 9), (6, 2, 27), (1, 3, 3), (2, 2, 5), (13, 2, 104)],
    )
    def test_closed_form(self, d, degree, width):
        assert expanded_dim(d, degree) == width
        assert len(monomial_index_tuples(d, degree)) == width

    @given(d=st.integers(1, 8), degree=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_width_matches_tuple_count(self, d, degree):
        assert expanded_dim(d, degree) == len(monomial_index_tuples(d, degree))


class TestValues:
    def test_two_vars_degree_two_row(self):
        row = expand(np.array([2.0, 3.0]), 2)
        assert row.tolist() == [2.0, 3.0, 4.0, 6.0, 9.0]

    def test_cubic_of_single_var(self):
        row = expand(np.array([-2.0]), 3)
        assert row.tolist() == [-2.0, 4.0, -8.0]

    def test_matrix_rows_match_vector_map(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 3))
        M = expand_matrix(X, 2)
        for i in range(6):
            np.testing.assert_array_equal(M[i], expand(X[i], 2))

    def test_no_bias_column(self):
        # the all-ones monomial (degree 0) must not appear
        M = expand_matrix(np.zeros((4, 3)), 2)
        assert np.all(M == 0.0)

    @given(
        x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
        degree=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_column_is_its_monomial(self, x, degree):
        vec = np.array(x)
        row = expand(vec, degree)
        for j, combo in enumerate(monomial_index_tuples(len(x), degree)):
            assert row[j] == pytest.approx(np.prod(vec[list(combo)]), rel=1e-12)


class TestValidation:
    def test_bad_degree(self):
        with pytest.raises(ValueError):
            expand_matrix(np.zeros((2, 2)), 0)

    def test_expand_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            expand(np.zeros((2, 2)), 2)

    def test_expand_matrix_rejects_vector_input(self):
        with pytest.raises(ValueError):
            expand_matrix(np.zeros(3), 2)

# Sparse integer matrices; rank checked against Fraction elimination oracles.

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from graphck import IntMatrix, exact_rank

from helpers import fraction_rank


def dense_fraction_rank(vectors, width):
    # dense Gaussian elimination over Q, the textbook way
    rows = [[Fraction(v.get(i, 0)) for i in range(width)] for v in vectors]
    rank = 0
    col = 0
    while col < width and rank < len(rows):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_partial_perm_and_transpose():
    s = IntMatrix.from_partial_perm({0: 2}, 3)  # sends basis 0 to basis 2
    assert s.entries == {(2, 0): 1}
    assert s.transpose().entries == {(0, 2): 1}
    assert (s @ s.transpose()).entries == {(2, 2): 1}  # range projection
    assert (s.transpose() @ s).entries == {(0, 0): 1}  # source projection


def test_matmul_known_product():
    a = IntMatrix(2, {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4})
    b = IntMatrix(2, {(0, 0): 5, (0, 1): 6, (1, 0): 7, (1, 1): 8})
    assert (a @ b).entries == {(0, 0): 19, (0, 1): 22, (1, 0): 43, (1, 1): 50}


def test_add_sub_cancellation_drops_zeros():
    a = IntMatrix(2, {(0, 0): 3})
    b = IntMatrix(2, {(0, 0): -3, (1, 1): 1})
    assert (a + b).entries == {(1, 1): 1}
    assert (a - a).entries == {}


def test_identity_and_diag():
    i = IntMatrix.identity(3)
    assert i @ i == i
    assert i.entries == {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    d = IntMatrix.from_diag([0, 2], 3)
    assert d @ d == d
    assert d.entries == {(0, 0): 1, (2, 2): 1}
    assert (i @ d) == d


def test_from_partial_perm_entries():
    # column c goes to row r: entry (r, c)
    s = IntMatrix.from_partial_perm({1: 0, 3: 2}, 4)
    assert s.entries == {(0, 1): 1, (2, 3): 1}


def test_vectorize_round_trip_positions():
    m = IntMatrix(3, {(1, 2): 7})
    assert m.vectorize() == {1 * 3 + 2: 7}


def test_rank_simple_cases():
    assert exact_rank([]) == 0
    assert exact_rank([{0: 1}, {1: 1}]) == 2
    assert exact_rank([{0: 1}, {0: 2}]) == 1
    assert exact_rank([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}]) == 2
    assert exact_rank([{}]) == 0


def test_rank_of_matrices_counts_independent_units():
    mats = [IntMatrix.from_partial_perm({0: 0}, 2),
            IntMatrix.from_partial_perm({1: 1}, 2),
            IntMatrix.identity(2)]  # dependent on the first two
    assert exact_rank(m.vectorize() for m in mats) == 2


def test_rank_matches_fraction_oracle_randomized():
    rng = random.Random(20260817)
    for trial in range(200):
        width = rng.randint(1, 8)
        nvecs = rng.randint(0, 10)
        vecs = []
        for _ in range(nvecs):
            support = rng.sample(range(width), rng.randint(0, width))
            vecs.append({i: rng.randint(-5, 5) for i in support})
        got = exact_rank(vecs)
        want = dense_fraction_rank(vecs, width)
        assert got == want, (trial, vecs)


# integer vectors whose entries, and so the pivots' leads, include 0, +-1,
# +-2, +-3 and 5
_entries = st.sampled_from([0, 1, -1, 2, -2, 3, -3, 5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 7), _entries, max_size=6),
                max_size=10))
def test_rank_matches_fraction_oracles_with_non_unit_leads(vecs):
    assert exact_rank(vecs) == fraction_rank(vecs) == dense_fraction_rank(vecs, 8)


def test_rank_leaves_its_input_unchanged():
    vecs = [{0: 2, 1: 4}, {0: 3, 1: 0, 2: 1}, {0: -2, 1: -4}]
    before = [dict(v) for v in vecs]
    assert exact_rank(vecs) == 2
    assert vecs == before


def test_rank_with_large_entries_stays_exact():
    # would break instantly under float epsilon games
    big = 10 ** 30
    vecs = [{0: big, 1: 1}, {0: big, 1: 2}, {0: 2 * big, 1: 3}]
    assert exact_rank(vecs) == 2

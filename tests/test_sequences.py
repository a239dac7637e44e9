import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rifslab import OmegaSeq, UsageError, omega_distance, splice
from rifslab.sequences import _equality_horizon

seqs = st.builds(
    OmegaSeq,
    st.lists(st.integers(1, 4), max_size=6).map(tuple),
    st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple))


def test_cycle_must_be_non_empty():
    with pytest.raises(UsageError, match="cycle must be non-empty"):
        OmegaSeq((1,), ())


def test_entries_are_one_based_positive():
    with pytest.raises(UsageError):
        OmegaSeq((0,), (1,))
    with pytest.raises(UsageError):
        OmegaSeq((), (1, -2))
    # True == 1, but a flag is no system index
    with pytest.raises(UsageError, match="True"):
        OmegaSeq((True,), (2,))
    om = OmegaSeq((2,), (1, 3))
    with pytest.raises(UsageError):
        om.entry(0)


def test_entries_take_numpy_integers_as_ints():
    # splice already took a numpy depth; the sequence itself refused one
    om = OmegaSeq((np.int64(1), np.uint8(2)), (np.int32(3),))
    assert om == OmegaSeq((1, 2), (3,))
    assert hash(om) == hash(OmegaSeq((1, 2), (3,)))
    assert all(type(s) is int for s in (*om.prefix, *om.cycle))
    assert splice(om, np.int64(2), om) == splice(om, 2, om)
    for bad in (True, np.bool_(True), 1.0, np.float64(1.0), "1"):
        with pytest.raises(UsageError, match="integer"):
            OmegaSeq((bad,), (1,))
        with pytest.raises(UsageError, match="integer"):
            OmegaSeq((), (2, bad))
    for bad in (0, np.int64(0), -1):
        with pytest.raises(UsageError, match=">= 1"):
            OmegaSeq((1,), (bad,))


def test_entry_walks_prefix_then_cycle():
    om = OmegaSeq((2, 2), (1, 3))
    assert [om.entry(k) for k in range(1, 8)] == [2, 2, 1, 3, 1, 3, 1]


def test_unfold_and_shift():
    om = OmegaSeq((2,), (1, 3))
    assert om.unfold(6) == (2, 1, 3, 1, 3, 1)
    assert om.shift(1).unfold(4) == (1, 3, 1, 3)
    assert om.shift(2).unfold(4) == (3, 1, 3, 1)
    assert om.shift(0) == om
    with pytest.raises(UsageError):
        om.shift(-1)


def test_str_form():
    assert str(OmegaSeq((1, 2), (3,))) == "(1,2|3)"
    assert str(OmegaSeq((), (1,))) == "(|1)"


def test_distance_known_values():
    a = OmegaSeq((), (1,))
    b = OmegaSeq((1, 1, 1), (2,))
    # first disagreement at position 4
    assert omega_distance(a, b) == 2.0 ** -4
    assert omega_distance(a, a) == 0.0


def test_distance_detects_equal_representations():
    # same sequence written two ways
    a = OmegaSeq((1,), (2, 1))
    b = OmegaSeq((1, 2), (1, 2))
    assert omega_distance(a, b) == 0.0


@given(seqs, seqs)
def test_distance_symmetric(u, v):
    assert omega_distance(u, v) == omega_distance(v, u)


@given(seqs, seqs, seqs)
def test_distance_ultrametric(u, v, w):
    # powers of two, so no tolerance is needed
    assert omega_distance(u, w) <= max(omega_distance(u, v),
                                       omega_distance(v, w))


@given(seqs, seqs)
def test_distance_zero_iff_sequences_agree(u, v):
    horizon = len(u.prefix) + len(v.prefix) + 4 * 5 * 3
    same = u.unfold(horizon) == v.unfold(horizon)
    assert (omega_distance(u, v) == 0.0) == same


def test_splice_keeps_head_and_switches_tail():
    om = OmegaSeq((), (1,))
    tail = OmegaSeq((3,), (2,))
    v = splice(om, 4, tail)
    assert v.unfold(8) == (1, 1, 1, 1, 3, 2, 2, 2)


def test_splice_zero_is_tail():
    tail = OmegaSeq((2,), (1,))
    assert splice(OmegaSeq((), (1,)), 0, tail) == tail


def test_splice_rejects_negative_depth():
    with pytest.raises(UsageError):
        splice(OmegaSeq((), (1,)), -1, OmegaSeq((), (1,)))


@given(seqs, st.integers(0, 40), seqs)
def test_splice_stays_within_two_power_k(om, k, tail):
    assert omega_distance(om, splice(om, k, tail)) <= 2.0 ** -k


@given(seqs, st.integers(0, 12))
def test_splicing_own_tail_reproduces_the_sequence(om, k):
    assert omega_distance(om, splice(om, k, om.shift(k))) == 0.0


def test_distance_past_the_underflow_is_not_zero():
    # the first disagreement is at 1201, where 2^-1201 underflows to 0.0
    om = OmegaSeq((), (1,) * 1200 + (2,))
    spliced = splice(om, 1, OmegaSeq((), (1,)))
    assert omega_distance(om, spliced) == math.ulp(0.0)
    assert omega_distance(om, splice(om, 1200, om.shift(1200))) == 0.0


def _binary_words(max_len):
    return [w for n in range(max_len + 1)
            for w in itertools.product((1, 2), repeat=n)]


def test_fine_wilf_horizon_matches_the_lcm_horizon():
    # every pair of binary cycles up to length 4 behind prefixes up to
    # length 2: the first disagreement found over |p_u| + |p_v| +
    # lcm(a, b) entries lies within the shorter horizon, which some pair
    # reaches
    seqs_ = [OmegaSeq(p, c) for p in _binary_words(2)
             for c in _binary_words(4) if c]
    reached = False
    for u in seqs_:
        for v in seqs_:
            lcm_horizon = (len(u.prefix) + len(v.prefix)
                           + math.lcm(len(u.cycle), len(v.cycle)))
            pairs = zip(u.unfold(lcm_horizon), v.unfold(lcm_horizon))
            first = next((i + 1 for i, (x, y) in enumerate(pairs) if x != y),
                         None)
            horizon = _equality_horizon(u, v)
            assert first is None or first <= horizon
            assert omega_distance(u, v) == (0.0 if first is None
                                            else 2.0 ** -first)
            reached = reached or first == horizon
    assert reached


def test_coprime_long_cycles_compare_in_small_memory(run_isolated):
    # lcm(10007, 10009) is about 10^8 entries; a + b - gcd is about 2 * 10^4
    code = """
from rifslab import OmegaSeq, omega_distance
ones = [OmegaSeq((), (1,) * n) for n in (10007, 10009)]
ends = [OmegaSeq((), (1,) * (n - 1) + (2,)) for n in (10007, 10009)]
print(omega_distance(*ones), omega_distance(*ends))
"""
    res = run_isolated(code, timeout=30, max_bytes=300 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0.0", repr(math.ulp(0.0))]

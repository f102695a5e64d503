import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp as scipy_logsumexp

from semfuse import labels as lb
from semfuse.labels import (DegenerateFusionWarning, InvalidInputError,
                            LabelSet, bayes_fuse, log_normalize,
                            logsumexp, softmax)


def uniform(C):
    return np.full(C, 1.0 / C)


def distributions(C=15):
    return hnp.arrays(np.float64, C,
                      elements=st.floats(1e-6, 1.0)).map(lambda v: v / v.sum())


# --- softmax ---------------------------------------------------------------


def test_softmax_all_zero_uniform():
    out = softmax(np.zeros(15))
    np.testing.assert_allclose(out, np.full(15, 1 / 15), atol=1e-12)


def test_softmax_shift_invariance_large_offset():
    a = softmax(np.array([1.0, 0.0, 0.0]))
    b = softmax(np.array([1001.0, 1000.0, 1000.0]))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_frozen_values():
    out = softmax(np.array([2.0, 1.0, 0.0]))
    np.testing.assert_allclose(
        out, [0.66524096, 0.24472847, 0.09003057], atol=1e-8)


def test_softmax_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        softmax(np.array([np.inf, 0.0]))
    with pytest.raises(InvalidInputError):
        softmax(np.array([np.nan, 0.0]))


@given(hnp.arrays(np.float64, 15, elements=st.floats(-50, 50)))
def test_softmax_sums_to_one_and_preserves_argmax(scores):
    out = softmax(scores)
    assert abs(out.sum() - 1.0) < 1e-6
    # the input argmax must attain the output maximum (ties may collapse in
    # float arithmetic, so index equality is too strict)
    assert out[np.argmax(scores)] == out.max()


@given(hnp.arrays(np.float64, 8, elements=st.floats(-20, 20)),
       st.floats(-100, 100))
def test_softmax_shift_invariant(scores, k):
    np.testing.assert_allclose(softmax(scores), softmax(scores + k), atol=1e-9)


# --- bayes_fuse ------------------------------------------------------------


def test_bayes_fuse_uniform_identity():
    p = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(bayes_fuse(uniform(3), p), p, atol=1e-12)


def test_bayes_fuse_frozen_two_class():
    out = bayes_fuse(np.array([0.8, 0.2]), np.array([0.8, 0.2]))
    np.testing.assert_allclose(out, [0.64 / 0.68, 0.04 / 0.68], atol=1e-12)
    np.testing.assert_allclose(out, [0.94117647, 0.05882353], atol=1e-8)


def test_bayes_fuse_degenerate_one_hot_mismatch():
    a = np.zeros(4)
    a[0] = 1.0
    b = np.zeros(4)
    b[2] = 1.0
    with pytest.warns(DegenerateFusionWarning):
        out = bayes_fuse(a, b)
    np.testing.assert_allclose(out, uniform(4), atol=1e-12)


def test_bayes_fuse_shape_mismatch():
    with pytest.raises(InvalidInputError):
        bayes_fuse(np.array([0.5, 0.5]), np.array([0.4, 0.3, 0.3]))


@given(distributions(10), distributions(10))
def test_bayes_fuse_commutative(a, b):
    np.testing.assert_allclose(bayes_fuse(a, b), bayes_fuse(b, a), atol=1e-12)


@given(distributions(6), distributions(6), distributions(6))
def test_bayes_fuse_associative(a, b, c):
    left = bayes_fuse(bayes_fuse(a, b), c)
    right = bayes_fuse(a, bayes_fuse(b, c))
    np.testing.assert_allclose(left, right, atol=1e-9)


def normalized(v):
    v = np.array(v)
    return v / v.sum()


# the top two entries one rounding step apart round to a tie
@example(normalized([0.25, np.nextafter(1.0, 0.0), 1.0] + [0.5] * 12))
@given(distributions(15))
def test_bayes_fuse_uniform_preserves_argmax(p):
    """Rounding is monotone, so fusion with a uniform prior never inverts two
    classes, but it can round the top two to a tie, which moves the argmax to
    the lower index. The argmax stays within a few rounding steps of the
    maximum, and is exact when the top two are further apart."""
    k = np.argmax(bayes_fuse(uniform(15), p))
    near = p.max() * (1 - 4 * np.finfo(np.float64).eps)
    assert p[k] >= near
    if np.sort(p)[-2] < near:
        assert k == np.argmax(p)


def test_bayes_fuse_broadcasts_over_batches():
    a = np.tile([[0.8, 0.2]], (5, 1))
    b = np.tile([[0.8, 0.2]], (5, 1))
    out = bayes_fuse(a, b)
    assert out.shape == (5, 2)
    np.testing.assert_allclose(out[3], [0.94117647, 0.05882353], atol=1e-8)


# --- log-space primitives ---------------------------------------------------


def test_log_normalize_symmetric_two_class():
    out = log_normalize(np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [-np.log(2), -np.log(2)], atol=1e-12)


def test_log_normalize_frozen_deep_negative():
    out = log_normalize(np.array([-1000.0, -1001.0]))
    np.testing.assert_allclose(out, [-0.31326169, -1.31326169], atol=1e-8)
    # the naive exp-then-log path underflows to zero here
    naive = np.exp(np.array([-1000.0, -1001.0]))
    assert naive.sum() == 0.0


def test_log_normalize_collapsed_mass():
    out = log_normalize(np.array([0.0, np.log(lb.EPS_FLOOR)]))
    assert abs(out[0]) < 1e-12
    assert out[1] < -60


def test_log_normalize_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        log_normalize(np.array([0.0, -np.inf]))


@given(hnp.arrays(np.float64, 15, elements=st.floats(-2000, 0)))
def test_log_normalize_logsumexp_zero(L):
    out = log_normalize(L)
    assert abs(logsumexp(out)) < 1e-9


@given(hnp.arrays(np.float64, 12, elements=st.floats(-500, 50)))
def test_logsumexp_matches_scipy(L):
    np.testing.assert_allclose(logsumexp(L), scipy_logsumexp(L), atol=1e-9)


def test_prob_from_log_bits_and_exp_normalized_in_place(rng):
    """Probabilities from log states, `exp_normalized` of `log_normalize`,
    have the bits of exp then division by the row sum, computed in place."""
    L = rng.normal(0, 20, size=(40, 7))
    Ln = log_normalize(L)
    p = np.exp(Ln)
    expected = p / p.sum(axis=-1, keepdims=True)
    out = lb.exp_normalized(Ln)
    assert out is Ln and np.array_equal(out, expected)


# --- argmax ----------------------------------------------------------------


def test_argmax_tie_breaks_to_lowest_index():
    assert np.argmax(uniform(15)) == 0


def test_argmax_probability_vector():
    assert np.argmax(np.array([0.1, 0.7, 0.2])) == 1


def test_argmax_log_state():
    assert np.argmax(np.array([-0.1, -3.0, -3.0])) == 0


# --- LabelSet ---------------------------------------------------------------


def test_default_labelset():
    ls = LabelSet.default()
    assert ls.num_classes == 15
    assert ls.dynamic_indices == (0, 1, 2)
    assert ls.names[0] == "person"
    assert ls.unknown_name == "unknown"
    assert ls.unknown_index == 14


def test_labelset_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        LabelSet(("a", "a"), (False, False), unknown_name=None)


def test_labelset_rejects_short():
    with pytest.raises(InvalidInputError):
        LabelSet(("solo",), (False,), unknown_name=None)


def test_labelset_rejects_missing_unknown():
    with pytest.raises(InvalidInputError):
        LabelSet(("a", "b"), (False, False), unknown_name="c")


def test_labelset_hash_depends_on_order():
    a = LabelSet(("a", "b"), (False, False), unknown_name=None)
    b = LabelSet(("b", "a"), (False, False), unknown_name=None)
    assert a.config_hash() != b.config_hash()


def test_labelset_config_round_trip(tmp_path):
    ls = LabelSet.default()
    path = tmp_path / "labels.json"
    ls.save(path)
    again = LabelSet.load(path)
    assert again == ls
    assert again.config_hash() == ls.config_hash()


def test_labelset_rejects_two_unknowns():
    cfg = {"classes": [{"name": "a", "unknown": True},
                       {"name": "b", "unknown": True}]}
    with pytest.raises(InvalidInputError):
        LabelSet.from_config(cfg)


def test_labelset_config_is_canonical_json(tmp_path):
    ls = LabelSet.default()
    path = tmp_path / "labels.json"
    ls.save(path)
    with open(path) as f:
        cfg = json.load(f)
    assert len(cfg["classes"]) == 15
    assert cfg["classes"][0] == {"name": "person", "dynamic": True,
                                 "unknown": False}

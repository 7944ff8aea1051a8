"""Tests for multi-exponentiation, hash-to-curve, Pedersen commitments
and the fixed-point codec."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import (
    Commitment,
    FixedPointCodec,
    PedersenParams,
    Point,
    SECP256K1,
    SECP256R1,
    derive_generators,
    generator,
    hash_to_curve,
    multi_scalar_mult,
    pippenger,
    scalar_mult,
    sha256,
    straus,
)
from repro.crypto import multiexp
from repro.crypto.multiexp import pippenger_window


def reference_msm(scalars, points):
    result = Point.identity(points[0].curve)
    for scalar, point in zip(scalars, points):
        result = result + scalar_mult(scalar, point)
    return result


# -- multiexp ----------------------------------------------------------------------


def test_straus_matches_reference():
    g = generator(SECP256K1)
    points = [scalar_mult(i + 1, g) for i in range(5)]
    scalars = [3, 1, 4, 1, 5]
    assert straus(scalars, points) == reference_msm(scalars, points)


def test_pippenger_matches_reference():
    g = generator(SECP256K1)
    points = [scalar_mult(i + 1, g) for i in range(30)]
    scalars = [(7 * i + 13) % 1000 + 1 for i in range(30)]
    assert pippenger(scalars, points) == reference_msm(scalars, points)


def test_pippenger_large_scalars():
    g = generator(SECP256R1)
    points = [scalar_mult(i + 2, g) for i in range(20)]
    scalars = [SECP256R1.n - i - 1 for i in range(20)]
    assert pippenger(scalars, points) == reference_msm(scalars, points)


def test_multiexp_with_zero_scalars():
    g = generator(SECP256K1)
    points = [g, g.double(), scalar_mult(5, g)]
    assert multi_scalar_mult([0, 0, 0], points).is_identity
    assert multi_scalar_mult([0, 1, 0], points) == g.double()


def test_multiexp_with_identity_points():
    g = generator(SECP256K1)
    identity = Point.identity(SECP256K1)
    assert multi_scalar_mult([5, 7], [identity, g]) == scalar_mult(7, g)


def test_multiexp_single_term():
    g = generator(SECP256K1)
    assert multi_scalar_mult([42], [g]) == scalar_mult(42, g)


def test_multiexp_validation():
    g = generator(SECP256K1)
    with pytest.raises(ValueError):
        multi_scalar_mult([1, 2], [g])
    with pytest.raises(ValueError):
        multi_scalar_mult([], [])
    with pytest.raises(ValueError):
        straus([1, 2], [generator(SECP256K1), generator(SECP256R1)])


def test_dispatch_small_vs_large_agree():
    g = generator(SECP256K1)
    points = [scalar_mult(i + 1, g) for i in range(40)]
    scalars = [i * i + 1 for i in range(40)]
    assert (straus(scalars[:8], points[:8])
            == pippenger(scalars[:8], points[:8]))
    assert (multi_scalar_mult(scalars, points)
            == reference_msm(scalars, points))


def test_pippenger_window_monotone():
    assert pippenger_window(2) == 1
    assert pippenger_window(100) >= pippenger_window(10)
    assert pippenger_window(10**7) <= 16


N = SECP256K1.n

#: A small point pool, negations included, so drawn terms repeat points
#: and put ``P`` and ``-P`` into the same call (buckets that cancel).
_POOL = [scalar_mult(k, generator(SECP256K1)) for k in (1, 2, 3)]
_POOL += [-point for point in _POOL]

#: Scalars around every boundary of the centred lift: fixed-point
#: positives and negatives, ``n//2`` (kept) and ``n//2 + 1`` (lifted),
#: ``n - 1``, zero, and full-width values.
_EDGE_SCALARS = st.one_of(
    st.integers(min_value=1, max_value=2**20),
    st.integers(min_value=1, max_value=2**20).map(lambda k: N - k),
    st.sampled_from([0, N // 2, N // 2 + 1, N - 1]),
    st.integers(min_value=0, max_value=N - 1),
)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_EDGE_SCALARS, st.integers(0, len(_POOL) - 1)),
                min_size=1, max_size=24))
@example([(5, 0), (5, 3)])          # 5·P + 5·(-P): a bucket cancels
@example([(5, 0), (N - 5, 0)])      # the lift turns N-5 into 5·(-P)
@example([(N - 5, 0), (5, 3)])      # ... and into the same bucket as 5·(-P)
@example([(N // 2, 1), (N // 2 + 1, 1), (N - 1, 2)] * 6)
def test_multiexp_property(terms):
    scalars = [scalar for scalar, _ in terms]
    points = [_POOL[index] for _, index in terms]
    expected = reference_msm(scalars, points)
    assert straus(scalars, points) == expected
    assert pippenger(scalars, points) == expected
    assert multi_scalar_mult(scalars, points) == expected


def test_fixed_point_commit_doublings_follow_centred_bits(monkeypatch):
    """A gradient commitment doubles over its centred bits, not 256."""
    codec = FixedPointCodec(order=N, fractional_bits=16)
    values = codec.encode(np.random.default_rng(13).normal(size=203))
    assert sum(value > N // 2 for value in values) > 50
    centred_bits = max(min(value, N - value) for value in values).bit_length()
    real_double = multiexp._jac_double
    doublings = []

    def counting_double(curve, point):
        doublings.append(point)
        return real_double(curve, point)

    monkeypatch.setattr(multiexp, "_jac_double", counting_double)
    commitment = PedersenParams.setup(SECP256K1, 203).commit(values)
    assert len(doublings) <= centred_bits + pippenger_window(203)
    # The element the uncentred 256-bit windows produced.
    assert commitment.to_bytes().hex() == (
        "02110a4e99aa992025f5e7f9d9c013548aa2ad9e684c4a6a5c0ec0ee0663a5d6f0"
    )


# -- hash-to-curve / generators ----------------------------------------------------------


def test_hash_to_curve_on_curve():
    for curve in (SECP256K1, SECP256R1):
        point = hash_to_curve(curve, b"seed")
        assert curve.is_on_curve(point.x, point.y)


def test_hash_to_curve_deterministic():
    assert hash_to_curve(SECP256K1, b"a") == hash_to_curve(SECP256K1, b"a")
    assert hash_to_curve(SECP256K1, b"a") != hash_to_curve(SECP256K1, b"b")


def test_derive_generators_distinct():
    gens = derive_generators(SECP256K1, 20)
    assert len({g.to_bytes() for g in gens}) == 20


def test_derive_generators_deterministic_prefix():
    first = derive_generators(SECP256K1, 5)
    longer = derive_generators(SECP256K1, 10)
    assert longer[:5] == first


#: SHA-256 over the compressed bytes of the first 256 generators.
GENERATOR_DIGESTS = {
    "secp256k1":
        "a1cfdb3b778528f9bfb16e054470d4c5d2b1d1cf84cc6c98b8d62d31b9156391",
    "secp256r1":
        "b38bff1926e44d163bf07ab6df4df122709c470df6e186421320a8acaa76c366",
}


@pytest.mark.parametrize("curve", [SECP256K1, SECP256R1],
                         ids=lambda curve: curve.name)
def test_derive_generators_golden(curve):
    encoded = b"".join(point.to_bytes()
                       for point in derive_generators(curve, 256))
    assert hashlib.sha256(encoded).hexdigest() == GENERATOR_DIGESTS[curve.name]


def test_derive_generators_validation():
    with pytest.raises(ValueError):
        derive_generators(SECP256K1, -1)


def test_sha256_wrapper():
    import hashlib
    assert sha256(b"x") == hashlib.sha256(b"x").digest()


# -- Pedersen ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    return PedersenParams.setup(SECP256K1, 8)


def test_commit_deterministic(params):
    assert params.commit([1, 2, 3]) == params.commit([1, 2, 3])


def test_commit_binds_vector(params):
    assert params.commit([1, 2, 3]) != params.commit([1, 2, 4])
    assert params.commit([1, 2, 3]) != params.commit([2, 1, 3])


def test_verify_accepts_opening(params):
    vector = [5, 0, 7, 9]
    assert params.verify(params.commit(vector), vector)


def test_verify_rejects_wrong_opening(params):
    commitment = params.commit([5, 0, 7, 9])
    assert not params.verify(commitment, [5, 0, 7, 8])


def test_homomorphic_addition(params):
    v1 = [1, 2, 3, 4]
    v2 = [10, 20, 30, 40]
    combined = params.commit(v1) * params.commit(v2)
    assert combined == params.commit([a + b for a, b in zip(v1, v2)])


def test_homomorphic_many_parties(params):
    vectors = [[i + j for j in range(4)] for i in range(6)]
    product = Commitment.product(
        [params.commit(v) for v in vectors], SECP256K1
    )
    total = [sum(col) for col in zip(*vectors)]
    assert params.verify(product, total)


def test_commitment_identity(params):
    identity = Commitment.identity(SECP256K1)
    c = params.commit([1, 2])
    assert identity * c == c
    assert params.commit([0, 0, 0]) == identity


def test_commit_zero_padding(params):
    assert params.commit([1, 2]) == params.commit([1, 2, 0, 0])


def test_commit_oversized_vector_raises(params):
    with pytest.raises(ValueError):
        params.commit(list(range(9)))


def test_commit_negative_values_mod_order(params):
    negative = params.commit([-1])
    wrapped = params.commit([SECP256K1.n - 1])
    assert negative == wrapped


def test_blinded_commitment_differs(params):
    plain = params.commit([1, 2, 3])
    blinded = params.commit([1, 2, 3], randomness=99)
    assert plain != blinded
    assert params.verify(blinded, [1, 2, 3], randomness=99)
    assert not params.verify(blinded, [1, 2, 3])


def test_commitment_serialization(params):
    c = params.commit([7, 8, 9])
    assert Commitment.from_bytes(SECP256K1, c.to_bytes()) == c


def test_params_size_validation():
    with pytest.raises(ValueError):
        PedersenParams.setup(SECP256K1, 0)


def test_generator_cache_shared():
    small = PedersenParams.setup(SECP256R1, 3)
    large = PedersenParams.setup(SECP256R1, 6)
    assert large.generators[:3] == small.generators


@settings(max_examples=5, deadline=None)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000),
             min_size=1, max_size=8),
    st.lists(st.integers(min_value=-1000, max_value=1000),
             min_size=1, max_size=8),
)
def test_homomorphism_property(v1, v2):
    params = PedersenParams.setup(SECP256K1, 8)
    length = max(len(v1), len(v2))
    v1 = v1 + [0] * (length - len(v1))
    v2 = v2 + [0] * (length - len(v2))
    assert (params.commit(v1) * params.commit(v2)
            == params.commit([a + b for a, b in zip(v1, v2)]))


# -- fixed-point codec ------------------------------------------------------------


def test_codec_roundtrip_exact():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=16)
    values = np.array([0.5, -0.25, 1.0, 0.0, -3.75])
    decoded = codec.decode(codec.encode(values))
    np.testing.assert_allclose(decoded, values)


def test_codec_quantization_error_bounded():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=24)
    rng = np.random.default_rng(3)
    values = rng.normal(size=100)
    decoded = codec.decode(codec.encode(values))
    assert np.max(np.abs(decoded - values)) <= 2.0 ** -24


def test_codec_additive_homomorphism():
    """Sum of encodings decodes to the sum of quantized values."""
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=20)
    a = np.array([0.1, -0.2, 0.3])
    b = np.array([-0.4, 0.5, -0.6])
    ea, eb = codec.encode(a), codec.encode(b)
    summed = [(x + y) % codec.order for x, y in zip(ea, eb)]
    decoded = codec.decode(summed)
    np.testing.assert_allclose(
        decoded, codec.quantize(a) + codec.quantize(b), atol=0
    )


def test_codec_quantize_matches_encode_decode():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=12)
    values = np.array([0.123456, -9.87654])
    np.testing.assert_allclose(
        codec.quantize(values), codec.decode(codec.encode(values))
    )


def test_codec_validation():
    with pytest.raises(ValueError):
        FixedPointCodec(order=2)
    with pytest.raises(ValueError):
        FixedPointCodec(order=SECP256K1.n, fractional_bits=0)
    with pytest.raises(ValueError):
        FixedPointCodec(order=SECP256K1.n, fractional_bits=64)


def test_codec_negative_wraparound():
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=8)
    scalar = codec.encode_value(-1.0)
    assert scalar == codec.order - 256
    assert codec.decode_value(scalar) == -1.0


@settings(max_examples=30)
@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_codec_roundtrip_property(value):
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=20)
    decoded = codec.decode_value(codec.encode_value(value))
    assert abs(decoded - value) <= 2.0 ** -20


def test_end_to_end_gradient_commitment():
    """The protocol's core check: commit(quantized gradients) verifies the
    aggregated update via the commitment product."""
    codec = FixedPointCodec(order=SECP256K1.n, fractional_bits=16)
    params = PedersenParams.setup(SECP256K1, 4)
    rng = np.random.default_rng(11)
    gradients = [rng.normal(size=4) for _ in range(3)]

    commitments = [params.commit(codec.encode(g)) for g in gradients]
    accumulated = Commitment.product(commitments, SECP256K1)

    aggregate = np.sum([codec.quantize(g) for g in gradients], axis=0)
    assert params.verify(accumulated, codec.encode(aggregate))

    tampered = aggregate.copy()
    tampered[0] += 2.0 ** -16
    assert not params.verify(accumulated, codec.encode(tampered))

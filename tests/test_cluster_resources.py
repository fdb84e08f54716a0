"""Tests for ResourceVector, including DRF dominant-share semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.resources import ZERO, ResourceVector, cpu_mem
from repro.common.errors import ConfigurationError


def vec(**kwargs):
    return ResourceVector(kwargs)


class TestConstruction:
    def test_empty(self):
        assert ResourceVector().is_zero()

    def test_zero_entries_dropped(self):
        assert vec(cpu=0.0) == ResourceVector()

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            vec(cpu=-1)

    def test_cpu_mem_helper(self):
        v = cpu_mem(5, 10)
        assert v["cpu"] == 5 and v["memory"] == 10


class TestMappingProtocol:
    def test_missing_type_is_zero(self):
        assert vec(cpu=4)["gpu"] == 0.0

    def test_get_default(self):
        assert vec(cpu=4).get("gpu", 7.0) == 7.0

    def test_iteration_and_len(self):
        v = vec(cpu=1, memory=2)
        assert set(v) == {"cpu", "memory"}
        assert len(v) == 2

    def test_contains(self):
        v = vec(cpu=1)
        assert "cpu" in v and "gpu" not in v

    def test_types(self):
        assert set(vec(cpu=1, gpu=2).types()) == {"cpu", "gpu"}


class TestArithmetic:
    def test_add(self):
        assert vec(cpu=1) + vec(cpu=2, gpu=1) == vec(cpu=3, gpu=1)

    def test_sub(self):
        assert vec(cpu=3, gpu=1) - vec(cpu=1) == vec(cpu=2, gpu=1)

    def test_sub_to_zero(self):
        assert (vec(cpu=3) - vec(cpu=3)).is_zero()

    def test_sub_below_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            vec(cpu=1) - vec(cpu=2)

    def test_scalar_multiply(self):
        assert vec(cpu=2) * 3 == vec(cpu=6)
        assert 3 * vec(cpu=2) == vec(cpu=6)

    def test_multiply_by_zero(self):
        assert (vec(cpu=2) * 0).is_zero()

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            vec(cpu=1) * -1

    def test_zero_identity(self):
        v = vec(cpu=4, memory=2)
        assert v + ZERO == v


class TestComparison:
    def test_fits_within(self):
        assert vec(cpu=4).fits_within(vec(cpu=4))
        assert vec(cpu=4).fits_within(vec(cpu=5, memory=1))
        assert not vec(cpu=6).fits_within(vec(cpu=5))

    def test_missing_capacity_type_rejects(self):
        assert not vec(gpu=1).fits_within(vec(cpu=100))

    def test_equality_ignores_explicit_zeros(self):
        assert ResourceVector({"cpu": 4, "gpu": 0}) == vec(cpu=4)

    def test_hash_consistent_with_eq(self):
        assert hash(vec(cpu=4, memory=2)) == hash(vec(memory=2, cpu=4))

    def test_equal_vectors_across_a_rounding_boundary_hash_alike(self):
        # The two amounts differ by 2e-14 but round to different 9-decimal
        # values; equal vectors must still land in one set slot.
        a = vec(cpu=0.12345678949999)
        b = vec(cpu=0.12345678950001)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(
        st.dictionaries(
            st.sampled_from(["cpu", "memory", "gpu"]),
            st.tuples(
                st.floats(min_value=1e-6, max_value=1e6),
                st.floats(min_value=-5e-10, max_value=5e-10),
            ),
            max_size=3,
        )
    )
    def test_equal_implies_equal_hash(self, entries):
        a = ResourceVector({k: amount for k, (amount, _) in entries.items()})
        b = ResourceVector({k: amount + delta for k, (amount, delta) in entries.items()})
        assert a == b
        assert hash(a) == hash(b)

    def test_values_follow_items(self):
        v = ResourceVector({"memory": 8, "cpu": 2.5, "gpu": 0})
        assert list(v.values()) == [value for _, value in v.items()] == [8.0, 2.5]


class TestDominantShare:
    def test_basic(self):
        capacity = vec(cpu=10, memory=100)
        assert vec(cpu=5, memory=10).dominant_share(capacity) == 0.5

    def test_dominant_resource_name(self):
        capacity = vec(cpu=10, memory=100)
        assert vec(cpu=5, memory=10).dominant_resource(capacity) == "cpu"

    def test_zero_vector(self):
        capacity = vec(cpu=10)
        assert ZERO.dominant_share(capacity) == 0.0
        assert ZERO.dominant_resource(capacity) is None

    def test_unsatisfiable_type_is_infinite(self):
        assert vec(gpu=1).dominant_share(vec(cpu=10)) == float("inf")

    def test_shares_per_type(self):
        shares = vec(cpu=5, memory=20).shares(vec(cpu=10, memory=100))
        assert shares == {"cpu": 0.5, "memory": 0.2}


amounts = st.dictionaries(
    st.sampled_from(["cpu", "memory", "gpu", "bandwidth"]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    max_size=4,
)


class TestProperties:
    @given(amounts, amounts)
    def test_addition_commutative(self, a, b):
        assert ResourceVector(a) + ResourceVector(b) == ResourceVector(b) + ResourceVector(a)

    @given(amounts, amounts)
    def test_add_then_subtract_roundtrips(self, a, b):
        va, vb = ResourceVector(a), ResourceVector(b)
        assert (va + vb) - vb == va

    @given(amounts)
    def test_self_fits_within_self(self, a):
        v = ResourceVector(a)
        assert v.fits_within(v)

    @given(amounts, st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_scaling_scales_dominant_share(self, a, factor):
        v = ResourceVector(a)
        capacity = ResourceVector({k: 1e7 for k in ("cpu", "memory", "gpu", "bandwidth")})
        base = v.dominant_share(capacity)
        scaled = (v * factor).dominant_share(capacity)
        assert scaled == pytest.approx(base * factor, rel=1e-6, abs=1e-12)

    @given(amounts, amounts)
    def test_sum_dominant_share_subadditive(self, a, b):
        va, vb = ResourceVector(a), ResourceVector(b)
        capacity = ResourceVector({k: 1e7 for k in ("cpu", "memory", "gpu", "bandwidth")})
        total = (va + vb).dominant_share(capacity)
        assert total <= va.dominant_share(capacity) + vb.dominant_share(capacity) + 1e-9

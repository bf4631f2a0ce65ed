"""Property-based tests (hypothesis) for the LMU layer invariants."""

import string
from collections.abc import Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuotaExceeded
from repro.lmu.serializer import DEFAULT_OBJECT_BYTES
from repro.lmu import (
    Codebase,
    Requirement,
    Version,
    code_unit,
    dependency_closure,
    estimate_size,
    largest_first_policy,
    lfu_policy,
    lru_policy,
)

versions = st.builds(
    Version,
    major=st.integers(0, 20),
    minor=st.integers(0, 20),
    patch=st.integers(0, 20),
)

unit_names = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-",
    min_size=1,
    max_size=12,
).filter(lambda name: not name.startswith("-"))


def make_unit(name, version=Version(1, 0, 0), size=100):
    return code_unit(
        name, str(version), lambda: (lambda ctx: None), size
    )


class TestVersionProperties:
    @given(versions)
    def test_parse_roundtrip(self, version):
        assert Version.parse(str(version)) == version

    @given(versions, versions)
    def test_ordering_total_and_antisymmetric(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(versions)
    def test_self_compatibility(self, version):
        assert version.compatible_with(version)

    @given(versions, versions)
    def test_compatibility_requires_same_major_and_not_older(self, a, b):
        if a.compatible_with(b):
            assert a.major == b.major
            assert a >= b

    @given(versions, versions, versions)
    def test_compatibility_transitive_along_order(self, a, b, c):
        # if a satisfies b's floor and b satisfies c's floor -> a satisfies c.
        if a.compatible_with(b) and b.compatible_with(c):
            assert a.compatible_with(c)


class TestRequirementProperties:
    @given(unit_names, versions)
    def test_parse_roundtrip(self, name, version):
        requirement = Requirement(name, version)
        assert Requirement.parse(str(requirement)) == requirement

    @given(unit_names, versions, versions)
    def test_satisfaction_consistent_with_compatibility(
        self, name, floor, actual
    ):
        requirement = Requirement(name, floor)
        unit = make_unit(name, actual)
        expected = requirement.any_version or actual.compatible_with(floor)
        assert requirement.satisfied_by(unit) == expected


class TestCodebaseQuotaInvariant:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdefgh"),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=30,
        ),
        st.sampled_from([lru_policy, lfu_policy, largest_first_policy]),
    )
    @settings(max_examples=60)
    def test_used_bytes_never_exceed_quota(self, installs, policy):
        quota = 1000
        codebase = Codebase(quota_bytes=quota, eviction=policy)
        for name, size in installs:
            try:
                codebase.install(make_unit(name, size=size))
            except QuotaExceeded:
                pass
            except Exception:
                # Version conflicts etc. must not corrupt accounting.
                pass
            assert codebase.used_bytes <= quota

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcdefgh"),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_used_bytes_equals_sum_of_installed(self, installs):
        codebase = Codebase(quota_bytes=1500, eviction=lru_policy)
        for name, size in installs:
            try:
                codebase.install(make_unit(name, size=size))
            except QuotaExceeded:
                pass
        assert codebase.used_bytes == sum(
            unit.size_bytes for unit in codebase.installed()
        )


class TestDependencyClosureProperties:
    @st.composite
    def acyclic_graphs(draw):
        """Random DAG: each unit may depend only on lower-numbered units."""
        count = draw(st.integers(min_value=1, max_value=10))
        edges = {}
        for index in range(count):
            if index == 0:
                edges[index] = []
            else:
                edges[index] = draw(
                    st.lists(
                        st.integers(0, index - 1), unique=True, max_size=3
                    )
                )
        return edges

    @given(acyclic_graphs())
    @settings(max_examples=60)
    def test_closure_is_dependency_ordered_and_complete(self, edges):
        units = {
            f"u{index}": code_unit(
                f"u{index}",
                "1.0.0",
                lambda: (lambda ctx: None),
                10,
                requires=[f"u{dep}" for dep in deps],
            )
            for index, deps in edges.items()
        }

        def resolve(requirement):
            return units[requirement.name]

        roots = [f"u{len(edges) - 1}"]
        closure = dependency_closure(roots, resolve)
        names = [unit.name for unit in closure]
        # No duplicates.
        assert len(names) == len(set(names))
        # Every dependency of an included unit is included, earlier.
        positions = {name: index for index, name in enumerate(names)}
        for unit in closure:
            for requirement in unit.requires:
                assert requirement.name in positions
                assert positions[requirement.name] < positions[unit.name]


json_like = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**31), 2**31),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class _Flag(int):
    """An ``int`` subclass: sized as a number, whatever it declares."""

    size_bytes = 1_000


class _Blob:
    """An opaque object declaring its own size."""

    def __init__(self, size):
        self.size_bytes = size


class _SizedList(list):
    """A ``list`` subclass declaring its size, which then wins."""

    size_bytes = 40


def _generic_size(value):
    """``estimate_size`` by the generic walk alone (no exact-type path)."""

    def walk(value, depth):
        if depth > 32:
            return DEFAULT_OBJECT_BYTES
        if value is None:
            return 1
        declared = getattr(value, "size_bytes", None)
        if isinstance(declared, int) and not isinstance(value, (bool, int)):
            return declared + 8
        if isinstance(value, bool):
            return 1
        if isinstance(value, (int, float)):
            return 8
        if isinstance(value, bytes):
            return len(value)
        if isinstance(value, str):
            return len(value.encode("utf-8"))
        if isinstance(value, Mapping):
            return sum(
                walk(key, depth + 1) + walk(item, depth + 1)
                for key, item in value.items()
            ) + 8
        if isinstance(value, (Sequence, set, frozenset)):
            return sum(walk(item, depth + 1) for item in value) + 8
        return DEFAULT_OBJECT_BYTES

    return 8 + walk(value, 0)


#: Nested data mixing the exact built-ins with subclasses and objects
#: that declare ``size_bytes``.
mixed_data = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**40), 2**40),
        st.integers(0, 9).map(_Flag),
        st.floats(allow_nan=False),
        st.text(max_size=12),
        st.binary(max_size=12),
        st.integers(0, 500).map(_Blob),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_SizedList),
        st.dictionaries(
            st.one_of(st.text(max_size=6), st.integers(), st.booleans()),
            children,
            max_size=4,
        ),
        st.frozensets(st.integers(), max_size=4),
    ),
    max_leaves=25,
)


class TestSerializerProperties:
    @given(mixed_data)
    def test_exact_type_fast_path_equals_generic_walk(self, value):
        assert estimate_size(value) == _generic_size(value)

    def test_fast_path_keeps_the_nesting_cap(self):
        value = "leaf"
        for _ in range(40):
            value = [value, {"k": (1, True)}]
        assert estimate_size(value) == _generic_size(value)

    @given(json_like)
    def test_size_is_positive_and_deterministic(self, value):
        size = estimate_size(value)
        assert size > 0
        assert estimate_size(value) == size

    @given(st.lists(json_like, max_size=5))
    def test_container_size_at_least_max_element(self, items):
        container_size = estimate_size(items)
        for item in items:
            # Envelope overheads differ, but content cannot shrink.
            assert container_size >= estimate_size(item) - 16

    @given(st.text(max_size=200))
    def test_string_size_monotone_in_length(self, text):
        assert estimate_size(text + "a") > estimate_size(text)

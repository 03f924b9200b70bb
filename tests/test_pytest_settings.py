"""The repo's pytest settings keep a failing property test reportable.

pyproject.toml turns every warning into an error. When a hypothesis test
fails, hypothesis writes a patch for its falsifying example, and the patch
writer imports libcst, which imports mypy_extensions; its TypedDict warns
that it is deprecated. Raised as an error inside a pytest hook, that
warning made the run end in INTERNALERROR without the falsifying example.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_planted="""
        from hypothesis import given, strategies as st

        @given(st.integers(0, 10))
        def test_planted(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output and "x=5" in output
    result.assert_outcomes(failed=1)

import pytest

from idealfunc import _sieve, make_quadratic_field, make_rational_field

FIELD_PARAMS = {
    "q": make_rational_field,
    "q:-1": lambda: make_quadratic_field(-1),
    "q:-5": lambda: make_quadratic_field(-5),
    "q:2": lambda: make_quadratic_field(2),
    "q:5": lambda: make_quadratic_field(5),
}


@pytest.fixture
def rational():
    return make_rational_field()


@pytest.fixture
def gaussian():
    return make_quadratic_field(-1)


@pytest.fixture(params=sorted(FIELD_PARAMS))
def any_field(request):
    return FIELD_PARAMS[request.param]()


@pytest.fixture
def fresh_memos():
    """Empty every per-process memo before and after the test."""
    _sieve.clear_cache()
    yield
    _sieve.clear_cache()

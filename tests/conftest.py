import pytest

from treewilf import gmp


@pytest.fixture(params=["gmp", "int"])
def engine(request, monkeypatch):
    """The engine that multiplies a bivariate solve's big slices: GMP, or int
    with libgmp made unloadable, as on a machine without it."""
    if request.param == "int":
        monkeypatch.setattr(gmp, "library", lambda: None)
    elif gmp.library() is None:
        pytest.skip("libgmp cannot be loaded here")
    return request.param

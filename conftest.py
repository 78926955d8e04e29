"""Suite-wide for tests/ and perfbench/: the compiled dual loop is cached in
a temporary directory, never under $HOME, for this process and for every
interpreter a test starts from os.environ."""
import pytest


@pytest.fixture(scope="session", autouse=True)
def native_cache(tmp_path_factory):
    """XDG_CACHE_HOME, where lossdepth.native keeps the compiled loop, for the
    whole session."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield

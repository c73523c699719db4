import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))

from lambid import cli, config
from lambid.dispersion import ElasticConstants, PlateSpec

# one line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run (plain prints are lost to fd-level capture)
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


@contextmanager
def pure_python_yaml():
    """PyYAML as it is without libyaml: CSafeLoader and CSafeDumper gone."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("CSafeLoader", "CSafeDumper"):
            mp.delattr(yaml, name, raising=False)
        yield


@pytest.fixture
def yaml_codecs_agree(request, monkeypatch, tmp_path_factory):
    """Every load_config and dump_resolved of the test runs again on the
    pure-Python codec (pure_python_yaml): a load must give an equal
    RunConfig, or a ConfigError of the same message (a YAML syntax error's
    message is libyaml's or PyYAML's own, so there only the type), and a
    dump the same bytes."""
    load, dump = config.load_config, config.RunConfig.dump_resolved
    spare = tmp_path_factory.mktemp("pure_python_yaml") / "resolved.yaml"

    def checked_load(path):
        try:
            cfg = load(path)
        except config.ConfigError as exc:
            with pure_python_yaml(), pytest.raises(config.ConfigError) as again:
                load(path)
            if not str(exc).startswith("config is not valid YAML"):
                assert str(again.value) == str(exc)
            raise
        with pure_python_yaml():
            assert load(path) == cfg
        return cfg

    def checked_dump(self, path):
        dump(self, path)
        with pure_python_yaml():
            dump(self, spare)
        assert spare.read_bytes() == Path(path).read_bytes()

    for module in (config, cli, request.module):
        if hasattr(module, "load_config"):
            monkeypatch.setattr(module, "load_config", checked_load)
    monkeypatch.setattr(config.RunConfig, "dump_resolved", checked_dump)


@pytest.fixture
def gfrp():
    """Regression constants for the glass-fibre coupon (Pa, kg/m^3)."""
    return ElasticConstants(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)


@pytest.fixture
def baseline():
    """Baseline orthotropic constants for the sensitivity study."""
    return ElasticConstants(160e9, 6.5e9, 14e9, 7e9, 1200.0)


@pytest.fixture
def plate():
    return PlateSpec(2e-3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_constants(rng):
    """Positive-definite orthotropic draw for property-style tests."""
    while True:
        c11 = rng.uniform(10e9, 200e9)
        c33 = rng.uniform(10e9, 200e9)
        c13 = rng.uniform(1e9, 0.9 * np.sqrt(c11 * c33))
        c55 = rng.uniform(2e9, 60e9)
        rho = rng.uniform(800.0, 3000.0)
        try:
            return ElasticConstants(c11, c13, c33, c55, rho)
        except ValueError:
            continue


_EIGVALSH = np.linalg.eigvalsh


def one_negative_at(rows):
    """np.linalg.eigvalsh, except that at each kh whose index is in
    rows(number of kh) no stacked matrix keeps a negative eigenvalue (still
    ascending).  The kh index is the first axis of the result, so this fits
    both the likelihood's [pairs, n] and branch_cp's [K, 2, n] stacks."""

    def fake(a):
        lams = _EIGVALSH(a)
        for i in rows(lams.shape[0]):
            lams[i] = np.sort(np.abs(lams[i]), axis=-1)
        return lams

    return fake

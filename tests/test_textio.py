"""The shared table codec: exact file text for every table kind, and
read-back equal bit for bit to a plain float() parse of that text."""

from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from lambid import analysis, bayes, cli, dispersion, textio, wavefield
from lambid.analysis import CurveEnsemble, ParamSummary
from lambid.dispersion import DispersionCurve, Mode, PlateSpec

UNITS = "# units: c11..c55 Pa, rho kg/m^3, sigma rad/s\n"


def _chain():
    return bayes.Chain(
        samples=np.array(
            [[2.81e10, 7.8e9, 1.67e10, 8.2e9, 1200.0, 3000.0],
             [2.8123456789012e10, 7.81e9, 1.6699e10, 8.25e9, 1199.5, 2999.99]]),
        log_posts=np.array([-1234.5678901234, -1230.25]),
        accepted=np.array([False, True]), warmup_len=1, seed=7,
        warnings=["acceptance 0.05 outside [0.1, 0.5], raise steps"])


def _ensemble(with_cg):
    omega = {"A0": np.array([[1.0e5, 2.5e5], [1.1e5, 2.6e5]]),
             "S0": np.array([[3.0e5, 6.0e5], [3.1e5, 6.1e5]])}
    c_g = {"A0": np.array([[900.5, 1200.25], [910.0, 1210.0]]),
           "S0": np.array([[3000.0, 2999.5], [3001.0, 2998.0]])}
    return CurveEnsemble(k_grid=np.array([150.0, 333.333333333333]),
                         omega=omega, c_g=c_g if with_cg else None,
                         sample_ids=np.array([0, 5]), n_skipped=0)


def _curves():
    a0 = DispersionCurve(Mode.A0, k=np.array([100.0, 200.0, 300.0]),
                         omega=np.array([5.0e4, 1.2e5, 2.0e5]),
                         c_p=np.array([500.0, 600.0, 666.666666666667]),
                         c_g=np.array([1000.0, 1100.0, 1150.0]))
    s0 = DispersionCurve(Mode.S0, k=np.array([100.0, 200.0]),
                         omega=np.array([3.0e5, 6.0e5]),
                         c_p=np.array([3000.0, 3000.0]))  # c_g None
    return [a0, s0]


def _observations():
    return wavefield.ObservationSet(
        [("S0", 6.0e5, 200.0), ("A0", 1.23456789012345e5, 250.5)], (0.3, 2.5))


def _summary():
    return {
        name: ParamSummary(mean=1.5 * (i + 1), variance=0.25e21 / (i + 1),
                           kde_mode=1.4 * (i + 1), ci_lo=1.0 * (i + 1),
                           ci_hi=2.0 * (i + 1) + 1e-9)
        for i, name in enumerate(bayes.PARAM_NAMES)}


CHAIN_TEXT = (
    UNITS + "# warmup_len,1\n# seed,7\n"
    "# warning,acceptance 0.05 outside [0.1, 0.5], raise steps\n"
    "iter,c11,c13,c33,c55,rho,sigma,log_post,accepted\n"
    "0,28100000000,7800000000,16700000000,8200000000,1200,3000,-1234.56789012,0\n"
    "1,28123456789,7810000000,16699000000,8250000000,1199.5,2999.99,-1230.25,1\n"
)
ENSEMBLE_ROWS = [
    "0,A0,150,100000", "0,A0,333.333333333,250000",
    "5,A0,150,110000", "5,A0,333.333333333,260000",
    "0,S0,150,300000", "0,S0,333.333333333,600000",
    "5,S0,150,310000", "5,S0,333.333333333,610000",
]
CG_CELLS = ["900.5", "1200.25", "910", "1210", "3000", "2999.5", "3001", "2998"]
CURVES_TEXT = (
    "mode,k_rad_m,f_hz,fh_mhz_mm,c_p_m_s,c_g_m_s\n"
    "A0,100,7957.74715459,0.0159154943092,500,1000\n"
    "A0,200,19098.593171,0.0381971863421,600,1100\n"
    "A0,300,31830.9886184,0.0636619772368,666.666666667,1150\n"
    "S0,100,47746.4829276,0.0954929658551,3000,nan\n"
    "S0,200,95492.9658551,0.19098593171,3000,nan\n"
)
OBSERVATIONS_TEXT = (
    "# band_mhz_mm,0.3,2.5\nmode,omega_rad_s,k_rad_m\n"
    "S0,600000,200\nA0,123456.789012,250.5\n"
)
SUMMARY_TEXT = (
    UNITS + "parameter,mean,mode,variance,ci_lo,ci_hi\n"
    "c11,1.5,1.4,2.5e+20,1,2.000000001\n"
    "c13,3,2.8,1.25e+20,2,4.000000001\n"
    "c33,4.5,4.2,8.33333333333e+19,3,6.000000001\n"
    "c55,6,5.6,6.25e+19,4,8.000000001\n"
    "rho,7.5,7,5e+19,5,10.000000001\n"
    "sigma,9,8.4,4.16666666667e+19,6,12.000000001\n"
)
SENSITIVITY_TEXT = (
    "parameter,mode,max_rel_omega_shift\n"
    "c11,A0,0.1\nc11,S0,0.05\nrho,A0,0.5\nrho,S0,0.01\n"
)


class TestFileText:
    """Every writer's output, byte for byte, as the per-module writers that
    the codec replaced produced it."""

    def test_chain(self, tmp_path):
        bayes.write_chain(tmp_path / "c.csv", _chain())
        assert (tmp_path / "c.csv").read_text() == CHAIN_TEXT

    @pytest.mark.parametrize("with_cg", [False, True])
    def test_ensemble(self, tmp_path, with_cg):
        analysis.write_ensemble(tmp_path / "e.csv", _ensemble(with_cg))
        header = "sample_id,mode,k_rad_m,omega_rad_s"
        rows = ENSEMBLE_ROWS
        if with_cg:
            header += ",c_g_m_s"
            rows = [f"{r},{cg}" for r, cg in zip(rows, CG_CELLS)]
        want = "\n".join([header, *rows]) + "\n"
        assert (tmp_path / "e.csv").read_text() == want

    def test_curves(self, tmp_path):
        dispersion.write_curves(tmp_path / "k.csv", _curves(), PlateSpec(2e-3))
        assert (tmp_path / "k.csv").read_text() == CURVES_TEXT

    def test_observations(self, tmp_path):
        wavefield.write_observations(tmp_path / "o.csv", _observations())
        assert (tmp_path / "o.csv").read_text() == OBSERVATIONS_TEXT

    def test_summary(self, tmp_path):
        analysis.write_summary(tmp_path / "s.csv", _summary())
        assert (tmp_path / "s.csv").read_text() == SUMMARY_TEXT

    def test_sensitivity(self, tmp_path, monkeypatch):
        shifts = {name: SimpleNamespace(max_shift={"A0": 0.1 * (i + 1) + 1e-13,
                                                   "S0": 0.05 / (i + 1)})
                  for i, name in enumerate(("c11", "c13", "c33", "c55", "rho"))}
        monkeypatch.setattr(dispersion, "sensitivity_sweep",
                            lambda *args, **kwargs: shifts)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "plate": {"thickness_mm": 2.0},
            "material": {"elastic": {"c11_gpa": 28.1, "c13_gpa": 7.8,
                                     "c33_gpa": 16.7, "c55_gpa": 8.2,
                                     "rho_kg_m3": 1200.0}},
            "band": {"n_points": 3}, "solver": {"order": 6},
        }))
        assert cli.main(["sensitivity", "--config", str(cfg), "--out",
                         str(tmp_path), "--params", "c11", "rho"]) == 0
        assert (tmp_path / "sensitivity.csv").read_text() == SENSITIVITY_TEXT


def _float_parse(text, first, count):
    """The per-cell float() parse that the readers' loadtxt replaced."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    return np.array([[float(v) for v in ln.split(",")[first:first + count]]
                     for ln in rows]).reshape(-1, count)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReadBack:
    def test_chain(self, tmp_path, rng):
        n = 400
        samples = rng.lognormal(0.0, 12.0, (n, 6)) * rng.choice([-1.0, 1.0], (n, 6))
        samples[0] = [0.0, -0.0, 2.2250738585072014e-308, 1e-300, 5e-324,
                      1.7976931348623157e308]
        log_posts = rng.normal(-1e3, 50, n)
        log_posts[0] = -np.inf  # Chain requires finite samples, not posts
        chain = bayes.Chain(samples=samples, log_posts=log_posts,
                            accepted=rng.random(n) < 0.3, warmup_len=17,
                            seed=3, warnings=["a, b", "c"])
        path = tmp_path / "chain.csv"
        bayes.write_chain(path, chain)
        back = bayes.read_chain(path)
        ref = _float_parse(path.read_text(), 1, 8)
        assert _same_bits(back.samples, ref[:, :6])
        assert _same_bits(back.log_posts, ref[:, 6])
        assert np.array_equal(back.accepted, chain.accepted)
        assert (back.warmup_len, back.seed) == (17, 3)
        assert back.warnings == ["a, b", "c"]

    def test_observations(self, tmp_path, rng):
        points = [("A0" if i % 3 else "S0", float(om), float(kk))
                  for i, (om, kk) in enumerate(rng.uniform(1e3, 1e7, (300, 2)))]
        path = tmp_path / "obs.csv"
        wavefield.write_observations(path, wavefield.ObservationSet(points, (0.2, 4.0)))
        back = wavefield.read_observations(path)
        ref = _float_parse(path.read_text(), 1, 2)
        got = np.array([p[1:] for p in back.points])
        assert _same_bits(got, ref)
        assert [p[0] for p in back.points] == [p[0] for p in points]
        assert all(type(v) is float for p in back.points for v in p[1:])
        assert back.band == (0.2, 4.0)

    def test_curves(self, tmp_path, gfrp, plate):
        k = dispersion.k_grid_for_fh_band(gfrp, plate, 0.3, 3.0, n_points=25,
                                          order=8)
        curves = [dispersion.group_velocity(c)
                  for c in dispersion.trace_curves(gfrp, plate, k, order=8)]
        path = tmp_path / "curves.csv"
        dispersion.write_curves(path, curves, plate)
        meta, lines = textio.read_table(path, CURVES_TEXT.splitlines()[0])
        assert meta == []
        assert textio.labels(lines) == ["A0"] * k.size + ["S0"] * k.size
        assert _same_bits(textio.float_columns(lines, 1, 5),
                          _float_parse(path.read_text(), 1, 5))


class TestReadTable:
    def test_metadata_in_file_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# units: m\n# band,1,2\n\n# note,x, y\na,b\n1,2\n\n3,4\n")
        meta, lines = textio.read_table(path, "a,b")
        assert meta == [("units: m", ""), ("band", "1,2"), ("note", "x, y")]
        assert [ln.strip() for ln in lines] == ["1,2", "3,4"]
        assert textio.float_columns(lines, 1, 1).tolist() == [[2.0], [4.0]]

    @pytest.mark.parametrize("text", ["", "# seed,1\n", "1,2\na,b\n"])
    def test_missing_header_raises(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="header"):
            textio.read_table(path, "a,b")

    def test_chain_skips_blank_and_whitespace_lines(self, tmp_path):
        # np.loadtxt on the open file rejects a whitespace-only line, which
        # a table skips; the chain reads as it does without both lines
        head, last = CHAIN_TEXT.rsplit("\n0,", 1)
        path = tmp_path / "chain.csv"
        path.write_text(head + "\n\n0," + last.replace("\n1,", "\n \t\n1,"))
        assert path.read_text().count("\n") == CHAIN_TEXT.count("\n") + 2
        (tmp_path / "plain.csv").write_text(CHAIN_TEXT)
        back, want = bayes.read_chain(path), bayes.read_chain(tmp_path / "plain.csv")
        assert _same_bits(back.samples, want.samples)
        assert _same_bits(back.log_posts, want.log_posts)
        assert np.array_equal(back.accepted, [False, True])
        assert (back.warmup_len, back.seed, back.warnings) == (
            1, 7, ["acceptance 0.05 outside [0.1, 0.5], raise steps"])

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("iter,c11,c13,c33,c55,rho,sigma,log_post,accepted\n")
        chain = bayes.read_chain(path)
        assert chain.samples.shape == (0, 6)
        assert chain.accepted.dtype == bool

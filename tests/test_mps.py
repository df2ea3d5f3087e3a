import numpy as np
import pytest

from gridfactor import assemble, verify_certificate, write_mps
from gridfactor.mps import MpsError
from gridfactor.solve import solve

from _oracles import read_mps, simplex_lp
from conftest import wind_only_spec


@pytest.fixture
def lp(small_spec):
    return assemble(small_spec)[0]


class TestWriter:
    def test_sections_in_order(self, lp):
        text = write_mps(lp)
        positions = [text.index(s) for s in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")]
        assert positions == sorted(positions)

    def test_model_is_named(self, lp):
        assert write_mps(lp).splitlines()[0] == "NAME        GRIDFACT"

    def test_writes_file(self, lp, tmp_path):
        path = tmp_path / "out.mps"
        text = write_mps(lp, path)
        assert path.read_text() == text


class TestRoundTrip:
    def test_small_lp_objective_preserved(self, lp, tmp_path):
        path = tmp_path / "model.mps"
        write_mps(lp, path)
        back = read_mps(path)
        assert back.n_cols == lp.n_cols
        assert back.n_rows == lp.n_rows
        a = solve(lp)
        b = solve(back)
        assert b.objective == pytest.approx(a.objective, rel=1e-12)

    def test_file_is_the_lp(self, lp):
        """Every coefficient, bound and relation reads back to 15 digits; no zero is stored."""
        back = read_mps(write_mps(lp))

        def agree(x, y):
            return np.max(np.abs(x - y) / (1.0 + np.abs(x)), initial=0.0) <= 1e-14

        assert back.A.shape == lp.A.shape
        assert agree(lp.A.toarray(), back.A.toarray())
        assert not np.any(back.A.data == 0.0)
        for name in ("c", "rhs"):
            assert agree(getattr(lp, name), getattr(back, name))
        for name in ("lb", "ub"):
            want, got = getattr(lp, name), getattr(back, name)
            infinite = np.isinf(want)
            assert np.array_equal(want[infinite], got[infinite])
            assert agree(want[~infinite], got[~infinite])
        assert np.array_equal(back.relations, lp.relations)

    def test_bounds_round_trip(self, tmp_path):
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        back = read_mps(write_mps(lp))
        assert np.array_equal(back.lb, lp.lb)
        assert np.array_equal(back.ub, lp.ub)
        assert np.array_equal(back.relations, lp.relations)
        assert back.blocks == {} and back.col_names == ()

    def test_double_round_trip_is_stable(self, lp):
        once = write_mps(read_mps(write_mps(lp)))
        twice = write_mps(read_mps(once))
        assert once == twice

    def test_cross_solver_certificate(self, tmp_path):
        """External-style solve of the exported MPS passes the certificate."""
        spec = wind_only_spec([1.0, 1.0], [0.5, 1.0])
        lp, _ = assemble(spec)
        imported = read_mps(write_mps(lp))
        external = solve(imported)
        native = simplex_lp(lp)
        assert external.objective == pytest.approx(native.objective, rel=1e-6)
        assert verify_certificate(imported, external).ok


class TestReader:
    def test_rejects_ranges(self):
        text = "NAME T\nROWS\n N  COST\nRANGES\n    R 1 2\nENDATA\n"
        with pytest.raises(MpsError, match="RANGES"):
            read_mps(text)

    def test_rejects_unknown_bound_kind(self):
        text = (
            "NAME T\nROWS\n N  COST\n L  R0000000\nCOLUMNS\n"
            "    X0000000  R0000000  1.0\nRHS\nBOUNDS\n BV BND  X0000000\nENDATA\n"
        )
        with pytest.raises(MpsError, match="bound kind"):
            read_mps(text)

    def test_free_and_mi_bounds(self):
        text = (
            "NAME T\nROWS\n N  COST\n L  R0000000\nCOLUMNS\n"
            "    X0000000  R0000000  1.0\n    X0000001  R0000000  1.0\n"
            "RHS\n    RHS  R0000000  5.0\nBOUNDS\n FR BND  X0000000\n"
            " MI BND  X0000001\nENDATA\n"
        )
        lp = read_mps(text)
        assert lp.lb[0] == -np.inf and lp.ub[0] == np.inf
        assert lp.lb[1] == -np.inf and lp.ub[1] == np.inf

"""Tests for coupler regridding, including mixed-resolution coupling."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apps.climate import ClimateMode, run_coupled_model
from repro.apps.climate.config import TEST_CONFIG, ClimateConfig
from repro.apps.climate.regrid import regrid


class TestRegrid:
    def test_identity_when_shapes_match(self):
        field = np.random.default_rng(0).random((6, 8))
        out = regrid(field, (6, 8))
        assert np.array_equal(out, field)
        assert out is not field  # a copy, never a view

    def test_upsample_preserves_mean(self):
        field = np.random.default_rng(1).random((4, 8))
        out = regrid(field, (8, 16))
        assert out.shape == (8, 16)
        assert out.mean() == pytest.approx(field.mean())

    def test_downsample_preserves_mean(self):
        field = np.random.default_rng(2).random((8, 16))
        out = regrid(field, (2, 8))
        assert out.shape == (2, 8)
        assert out.mean() == pytest.approx(field.mean())

    def test_constant_field_exact(self):
        field = np.full((4, 6), 3.5)
        out = regrid(field, (7, 9))
        assert np.allclose(out, 3.5)

    def test_smooth_gradient_preserved(self):
        yy, xx = np.mgrid[0:8, 0:8]
        field = xx.astype(float)
        out = regrid(field, (16, 16))
        # still monotone along x
        assert (np.diff(out, axis=1) >= -1e-9).all()

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            regrid(np.zeros(5), (2, 2))

    @pytest.mark.parametrize("shapes", [((4, 6), (7, 9)),
                                        ((8, 16), (2, 8)),
                                        ((5, 7), (3, 11))])
    def test_matches_scipy_grid_mode_zoom(self, shapes):
        ndimage = pytest.importorskip("scipy.ndimage")
        (src, dst) = shapes
        field = np.random.default_rng(3).random(src)
        expected = ndimage.zoom(
            field, (dst[0] / src[0], dst[1] / src[1]), order=1,
            grid_mode=True, mode="nearest")[:dst[0], :dst[1]]
        out = regrid(field, dst, preserve_mean=False)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)

    def test_needs_no_scipy(self):
        """``repro.bench`` and the regridder run on numpy alone."""
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import repro.bench\n"
            "from repro.apps.climate.regrid import regrid\n"
            "out = regrid(np.arange(24.0).reshape(4, 6), (7, 9))\n"
            "assert out.shape == (7, 9)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)


class TestMixedResolutionCoupling:
    """The ocean runs on a coarser grid than the atmosphere; the coupler
    regrids both directions."""

    @pytest.fixture(scope="class")
    def mixed_config(self):
        return dataclasses.replace(
            TEST_CONFIG,
            atmo_nx=24, atmo_ny=8,     # 2 rows per atmo rank
            ocean_nx=12, ocean_ny=8,   # coarser in x
        )

    def test_runs_to_completion(self, mixed_config):
        result = run_coupled_model(mixed_config, ClimateMode.SKIP_POLL,
                                   skip_poll=50)
        assert result.total_time > 0
        assert np.isfinite(result.atmo_checksum)
        assert np.isfinite(result.ocean_checksum)

    def test_deterministic(self, mixed_config):
        a = run_coupled_model(mixed_config, ClimateMode.SKIP_POLL,
                              skip_poll=50)
        b = run_coupled_model(mixed_config, ClimateMode.SKIP_POLL,
                              skip_poll=50)
        assert a.atmo_checksum == b.atmo_checksum
        assert a.ocean_checksum == b.ocean_checksum

    def test_physics_independent_of_comm_mode(self, mixed_config):
        selective = run_coupled_model(mixed_config, ClimateMode.SELECTIVE)
        all_tcp = run_coupled_model(mixed_config, ClimateMode.ALL_TCP)
        assert selective.atmo_checksum == pytest.approx(
            all_tcp.atmo_checksum)
        assert selective.ocean_checksum == pytest.approx(
            all_tcp.ocean_checksum)

    def test_same_grid_results_unchanged_by_regrid_path(self):
        """The identity regrid must not perturb the original experiment."""
        result = run_coupled_model(TEST_CONFIG, ClimateMode.SELECTIVE)
        again = run_coupled_model(TEST_CONFIG, ClimateMode.SELECTIVE)
        assert result.atmo_checksum == again.atmo_checksum

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graftlab import annuli, hypgeom

import oracles

MOD_1_2 = 0.1103178000763258          # log(2)/(2 pi)
EXTCYL_01_2PI = 93.24819601413276     # (2 theta(0.1) + 2 pi)/0.1
PHI_01_2PI = 1.0584230926669632
PHICOMP_01_2PI = 0.5123732341279334
BDIST_01_2PI = 1.3396305946870117
COLLARMOD_01 = 30.416342942336896


class TestRoundAnnulus:
    def test_invariants(self):
        with pytest.raises(ValueError):
            annuli.RoundAnnulus(2.0, 1.0)
        with pytest.raises(ValueError):
            annuli.RoundAnnulus(0.0, 1.0)


class TestModulus:
    def test_full_turn(self):
        assert annuli.modulus(annuli.RoundAnnulus(1.0, math.exp(2 * math.pi))) == pytest.approx(
            1.0, rel=1e-15
        )

    def test_frozen_value(self):
        assert annuli.modulus(annuli.RoundAnnulus(1.0, 2.0)) == pytest.approx(MOD_1_2, rel=1e-14)
        assert MOD_1_2 == pytest.approx(oracles.as_float(oracles.round_modulus(1, 2)), rel=1e-15)

    def test_scale_invariance(self):
        a = annuli.RoundAnnulus(1.0, 2.0)
        scaled = annuli.RoundAnnulus(3.7 * a.inner, 3.7 * a.outer)
        assert annuli.modulus(scaled) == pytest.approx(annuli.modulus(a), abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=1.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance_property(self, inner, ratio, c):
        a = annuli.RoundAnnulus(inner, inner * ratio)
        scaled = annuli.RoundAnnulus(c * a.inner, c * a.outer)
        assert annuli.modulus(scaled) == pytest.approx(annuli.modulus(a), abs=1e-12)

    def test_additive_over_concentric_splits(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            radii = np.sort(rng.uniform(0.5, 30.0, size=4))
            parts = sum(
                annuli.modulus(annuli.RoundAnnulus(radii[i], radii[i + 1])) for i in range(3)
            )
            whole = annuli.modulus(annuli.RoundAnnulus(radii[0], radii[3]))
            assert parts == pytest.approx(whole, abs=1e-12)


class TestLogCoords:
    def test_inner_base_point(self):
        assert annuli.from_log_coords(1.0, 0.0, 0.0) == pytest.approx(1.0 + 0.0j)

    def test_frozen_quarter_turn(self):
        # exp(1 + 2 pi i / 4) = e * i
        got = annuli.from_log_coords(1.0, 1.0, 0.25)
        assert got == pytest.approx(math.e * 1j, rel=1e-14)

    def test_roundtrip_on_random_lattice(self):
        rng = np.random.default_rng(11)
        ann = annuli.RoundAnnulus(1.0, math.exp(2.3))
        for _ in range(200):
            t = float(rng.uniform(0.0, ann.log_width))
            x = float(rng.uniform(0.0, 1.0))
            z = annuli.from_log_coords(ann.log_width, t, x)
            t2, x2 = annuli.to_log_coords(ann, z)
            assert t2 == pytest.approx(t, abs=1e-12)
            assert (x2 - x + 0.5) % 1.0 - 0.5 == pytest.approx(0.0, abs=1e-12)

    def test_boundary_identification(self):
        ann = annuli.RoundAnnulus(2.0, 8.0)
        t_in, _ = annuli.to_log_coords(ann, 2.0 + 0.0j)
        t_out, _ = annuli.to_log_coords(ann, 8.0 + 0.0j)
        assert t_in == 0.0
        assert t_out == pytest.approx(ann.log_width, rel=1e-15)

    def test_rejects_outside_point(self):
        ann = annuli.RoundAnnulus(1.0, 2.0)
        with pytest.raises(ValueError):
            annuli.to_log_coords(ann, 4.0 + 0.0j)
        with pytest.raises(ValueError):
            annuli.to_log_coords(ann, 0.5j)


class TestExtendedCylinderModulus:
    def test_frozen_value(self):
        got = annuli.extended_cylinder_modulus(0.1, 2 * math.pi)
        assert got == pytest.approx(EXTCYL_01_2PI, rel=1e-13)
        assert EXTCYL_01_2PI == pytest.approx(
            oracles.as_float(oracles.extended_cylinder_modulus(0.1, 2 * math.pi)), rel=1e-14
        )

    def test_small_height_limit_is_collar_modulus(self):
        l = 0.2
        limit = annuli.extended_cylinder_modulus(l, 1e-13)
        assert limit == pytest.approx(2 * hypgeom.collar_angle(l) / l, rel=1e-11)

    def test_linear_in_height(self):
        l, t = 0.3, 1.7
        delta = annuli.extended_cylinder_modulus(l, 2 * t) - annuli.extended_cylinder_modulus(l, t)
        assert delta == pytest.approx(t / l, rel=1e-12)


class TestSectorAngles:
    def test_frozen_values(self):
        phi, phi_comp = annuli.grafting_sector_angles(0.1, 2 * math.pi)
        assert phi == pytest.approx(PHI_01_2PI, rel=1e-13)
        assert phi_comp == pytest.approx(PHICOMP_01_2PI, rel=1e-13)
        ophi, ocomp = oracles.sector_angles(0.1, 2 * math.pi)
        assert PHI_01_2PI == pytest.approx(oracles.as_float(ophi), rel=1e-14)
        assert PHICOMP_01_2PI == pytest.approx(oracles.as_float(ocomp), rel=1e-14)

    def test_sum_is_half_pi(self):
        for l in (0.01, 0.1, 0.4):
            for t in (0.5, math.pi, 4 * math.pi):
                phi, phi_comp = annuli.grafting_sector_angles(l, t)
                assert phi + phi_comp == pytest.approx(math.pi / 2, abs=1e-14)

    def test_symmetric_at_matching_height(self):
        l = 0.15
        t = 2 * hypgeom.collar_angle(l)
        phi, phi_comp = annuli.grafting_sector_angles(l, t)
        assert phi == pytest.approx(math.pi / 4, rel=1e-14)
        assert phi_comp == pytest.approx(math.pi / 4, rel=1e-14)

    def test_small_height_limit(self):
        phi, phi_comp = annuli.grafting_sector_angles(0.1, 1e-14)
        assert phi == pytest.approx(0.0, abs=1e-14)
        assert phi_comp == pytest.approx(math.pi / 2, rel=1e-14)


class TestBoundaryDistance:
    def test_vanishes_without_cylinder(self):
        assert annuli.cylinder_boundary_distance(0.1, 1e-15) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_value(self):
        got = annuli.cylinder_boundary_distance(0.1, 2 * math.pi)
        assert got == pytest.approx(BDIST_01_2PI, rel=1e-13)
        assert BDIST_01_2PI == pytest.approx(
            oracles.as_float(oracles.boundary_distance(0.1, 2 * math.pi)), rel=1e-14
        )

    def test_increasing_in_height(self):
        vals = [annuli.cylinder_boundary_distance(0.1, t) for t in np.linspace(0.1, 20, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestStandardCollarModulus:
    def test_frozen_value(self):
        assert annuli.standard_collar_modulus(0.1) == pytest.approx(COLLARMOD_01, rel=1e-13)
        assert COLLARMOD_01 == pytest.approx(
            oracles.as_float(oracles.standard_collar_modulus(0.1)), rel=1e-14
        )

    def test_small_length_limit(self):
        l = 1e-7
        assert annuli.standard_collar_modulus(l) * l == pytest.approx(math.pi, rel=1e-6)

    def test_agrees_with_collar_angle_form(self):
        for l in np.geomspace(1e-3, 0.5, 60):
            l = float(l)
            assert abs(
                annuli.standard_collar_modulus(l) - 2 * hypgeom.collar_angle(l) / l
            ) <= 1e-10

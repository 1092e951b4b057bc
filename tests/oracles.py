"""Extended-precision oracles (40 significant digits via mpmath).

Every frozen expected value in the test suite was produced by one of these
functions; the tests re-derive them at runtime as well, so a drifting
frozen constant fails loudly.  The oracles evaluate the defining formulas
directly and never call into graftlab.
"""

import mpmath as mp

mp.mp.dps = 40

PI = mp.pi


def psi(r):
    return mp.atan((mp.exp(2 * mp.mpf(r)) - 1) / (2 * mp.exp(mp.mpf(r))))


def theta(l):
    l = mp.mpf(l)
    return mp.acos((mp.exp(l) - 1) / (mp.exp(l) + 1))


def collar_width(x):
    x = mp.mpf(x)
    return mp.log((mp.cosh(x / 2) + 1) / (mp.cosh(x / 2) - 1)) / 2


def collar_quotient(x):
    x = mp.mpf(x)
    return (mp.cosh(x / 2) - 1) / (mp.cosh(x / 2) + 1)


def freehomotopy_distance(l_long, l_geo):
    num = mp.cosh(mp.mpf(l_long) / 2) ** 2 - 1
    den = mp.cosh(mp.mpf(l_geo) / 2) ** 2 - 1
    return mp.acosh(mp.sqrt(num / den))


def round_modulus(inner, outer):
    return mp.log(mp.mpf(outer) / mp.mpf(inner)) / (2 * PI)


def extended_cylinder_modulus(l, t):
    return (2 * theta(l) + mp.mpf(t)) / mp.mpf(l)


def sector_angles(l, t):
    t = mp.mpf(t)
    phi = PI / 2 * t / (t + 2 * theta(l))
    return phi, PI / 2 - phi


def boundary_distance(l, t):
    _, phi_comp = sector_angles(l, t)
    return mp.log(mp.cos(phi_comp / 2) / mp.sin(phi_comp / 2))


def standard_collar_modulus(l):
    l = mp.mpf(l)
    return PI * (1 - 4 / PI * mp.atan((mp.exp(l / 2) - 1) / (mp.exp(l / 2) + 1))) / l


def shear_k_norm(b):
    b = mp.mpf(b)
    return mp.sqrt(2) * (b - 1) / (3 - b)


def shear_dilatation(b):
    k = shear_k_norm(b)
    return (1 + k) / (1 - k)


def twist_dilatation(a, k):
    root = mp.sqrt(1 + 4 * (mp.mpf(a) / mp.mpf(k)) ** 2)
    return 1 + 2 / (root - 1)


def twist_abs_mu(a, k):
    return 1 / mp.sqrt(1 + 4 * (mp.mpf(a) / mp.mpf(k)) ** 2)


def twist_excess(q):
    # The defining form cancels about log10(1/q) digits; 80 digits leave
    # 50 at q = 1e-30.
    with mp.workdps(80):
        return 2 / (mp.sqrt(1 + mp.mpf(q)) - 1)


def untwist_bound(l_ratio_sq):
    return 2 / (mp.sqrt(1 + 4 / (mp.mpf(l_ratio_sq) - 1)) - 1)


def graft_lower_factor(l, t):
    tt = 2 * theta(l)
    return (1 / (1 + mp.mpf(l))) * tt / (tt + mp.mpf(t))


def graft_upper_factor(t):
    return PI / (PI + mp.mpf(t))


def separation_factor(l):
    l = mp.mpf(l)
    return 1 - 4 / PI * mp.atan((mp.exp(l / 2) - 1) / (mp.exp(l / 2) + 1))


def collapse_distance(l, s):
    return mp.log(1 + mp.mpf(s) / (2 * theta(l))) / 2


def lift_ratio(t):
    return graft_upper_factor(t) ** (mp.mpf(1) / 8)


def as_float(x) -> float:
    return float(mp.mpf(x))

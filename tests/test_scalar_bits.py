"""The scalar path of the determinant, pinned bit for bit.

The scan hashes pin the array path only.  These ``float.hex`` strings pin
what a float beta or a float a gives: the parts of ``log_det_area`` on the
integral route, both beta-derivatives, the series route of
zeta_B'(0; a, 1, 1) with its certificate, the integral route and its two
a-derivatives at the ends of its range of a, the closed-form terms (zeta0,
its two derivatives, the expansion near beta = -1/2 and the convexity bound),
the rational route of zeta_B'(0; p/q, 1, 1) with its error bound, and the
critical area.  One sha256 pins the scalar calls at 300 seeded points, and
one the rational route of log_det_area at every reduced beta = -n/q with
q <= 60.  ``AngleParam.from_fraction`` is pinned for a Fraction and for a
float beta given as a float, a numpy float and a 0-d array.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

import numpy as np

from envdet import barnes, envelope
from envdet.envelope import AngleParam

PARTS = {
    (-0.999, 1.0): ("0x1.5ded291d3e705p+9", "0x1.a7422b0611735p+10", "-0x1.f0972ceee4765p+9", "-0x0.0p+0"),
    (-0.999, 3.0): ("0x1.02ecb2846cc2ep+9", "0x1.a7422b0611735p+10", "-0x1.f0972ceee4765p+9", "-0x1.6c01da6346b5bp+7"),
    (-0.75, 1.0): ("0x1.53908b55272f4p-4", "0x1.5d15af285ab0ep+1", "-0x1.52792acdb1776p+1", "0x0.0p+0"),
    (-0.75, 3.0): ("0x1.6e22ca8019fc7p-2", "0x1.5d15af285ab0ep+1", "-0x1.52792acdb1776p+1", "0x1.193ea7aad030ap-2"),
    (-2.0 / 3.0, 1.0): ("0x1.637ea0bb0e1f0p-6", "0x1.159aba663ff40p+1", "-0x1.12d3bd24c9d7cp+1", "0x0.0p+0"),
    (-2.0 / 3.0, 3.0): ("0x1.8d361eef7122bp-2", "0x1.159aba663ff40p+1", "-0x1.12d3bd24c9d7cp+1", "0x1.76fe34e3c040cp-2"),
    (-0.51, 1.0): ("0x1.13cdc8e566f84p+2", "0x1.ce25f839d313ep+4", "-0x1.893286007955dp+4", "-0x0.0p+0"),
    (-0.51, 3.0): ("0x1.18c3e548b0bfcp-1", "0x1.ce25f839d313ep+4", "-0x1.893286007955dp+4", "-0x1.e16a9878a1c09p+1"),
}
DERIVATIVES = {
    -0.999: ("-0x1.a48eb6a17c30ap+19", "0x1.c2330872ed2a5p+30"),
    -0.75: ("-0x1.8c068866e1a5ap+0", "0x1.74def56474206p+4"),
    -2.0 / 3.0: ("0x1.0000000000000p-49", "0x1.19bff16f11180p+4"),
    -0.51: ("0x1.56c9fc543669cp+9", "0x1.4fa75c49e4d5cp+17"),
}
BARNES_SERIES = {
    (0.005, 2): ("0x1.8a555552a6a68p+5", "0x1.caea453a8569dp-32"),
    (0.005, 5): ("0x1.8a555552984f3p+5", "0x1.fdd43c79e915bp-80"),
    (0.005, 16): ("0x1.8a555552984f3p+5", "0x1.de4263c013c60p-214"),
    (0.3, 2): ("0x1.895cb539f7e67p-2", "0x1.7a22686ae84dcp-14"),
    (0.3, 5): ("0x1.894590786fae9p-2", "0x1.1d35fb27b5622p-26"),
    (0.3, 16): ("0x1.8945916d3a5dcp-2", "0x1.02b8c7877ce11p-30"),
    (1.0, 2): ("-0x1.4d084c62d9820p-3", "0x1.b5a7d2ed83639p-9"),
    (1.0, 5): ("-0x1.536a22991a3d6p-3", "0x1.ba34ca1c7439ap-11"),
    (1.0, 16): ("0x1.4100781f85960p+19", "0x1.d1089b17cf477p+23"),
}
# a -> zeta_b_prime0 value and error estimate, d_zeta_b_prime0, d2_zeta_b_prime0;
# at a = 1e-100 the order-0 integrand is -0.0 at the first nodes
BARNES_INTEGRAL = {
    1e-100: ("0x1.2325a106ae2fbp+330", "0x0.0000003480000p-1022",
             "-0x1.4cc6ff88e98e5p+662", "0x1.7c5c3c9d34a39p+995"),
    1e-6: ("0x1.e5d9023f8e41dp+17", "0x1.8180000000000p-112",
           "-0x1.cf5760bf4de3cp+37", "0x1.b9e0707ff1820p+58"),
    1e27: ("-0x1.fdf697f97e912p+91", "0x1.f840000000000p+51",
           "-0x1.40fc3ca22d013p+2", "-0x1.bec77c508b2aep-97"),
}
# beta -> zeta0, d_zeta0, d2_zeta0, asymptotic_neghalf, convexity_lower_bound
CLOSED_FORMS = {
    -0.999: ("0x1.4b556b38f225ap+7", "-0x1.45853fea16c52p+17", "0x1.3de4356010723p+28",
             "-0x1.d6251fe2b08bep-1", "0x1.c03ec450957c4p+30"),
    -0.75: ("-0x1.fffffffffffffp-3", "-0x1.0000000000000p+1", "0x1.aaaaaaaaaaaaap+4",
            "-0x1.241f598b6ed6dp-1", "0x1.676649c8bae78p+4"),
    -2.0 / 3.0: ("-0x1.5555555555553p-2", "0x1.0000000000000p-50", "0x1.b000000000002p+4",
                 "-0x1.935e578afed94p-2", "0x1.0bf11e58bfbe8p+4"),
    -0.51: ("0x1.b6343eb1a1f52p+1", "0x1.9ff8f682b806dp+8", "0x1.45882aa79a575p+16",
            "0x1.1165e326171a2p+2", "0x1.4ba6af25a660cp+17"),
}
# a = p/q -> zeta_b_prime0_rational value and error bound
BARNES_RATIONAL = {
    Fraction(1, 3): ("0x1.35f8ee835eec6p-2", "0x1.6849b86a12b9bp-45"),
    Fraction(3, 4): ("-0x1.7cdbb03be7390p-4", "0x1.3b40815cd0628p-44"),
    Fraction(5, 6): ("-0x1.f6120bfef5720p-4", "0x1.ef655d91d9bf5p-44"),
    Fraction(997, 1009): ("-0x1.4da31531832d0p-3", "0x1.60e63561e5d76p-36"),
}
CRITICAL_AREA = "0x1.eb75300deff52p+0"
# sha256 of the float.hex lines of log_det_area's four parts, d_log_det and
# d2_log_det at SEEDED_POINTS
SEEDED_SHA256 = "4bf2a29f972660fc19f4a6abf36b5ee049588f3f74b90dd7fcbbf972df86a3cf"
# sha256 of the float.hex lines of the rational route's four parts at every
# reduced -n/q in (-1, -1/2) with q <= 60, in increasing order, at area 1 and
# then at area 3.7
RATIONAL_SHA256 = "088a4e55f319c5d4efe0294135d02aa2fc74ed01bc2e47c2ba078406b371442d"
# beta given to from_fraction -> its exact, and beta, a1 and a2 in hex; a
# Fraction is kept as given, any other real at its float's exact value
FROM_FRACTION = {
    "Fraction(-2, 3)": (Fraction(-2, 3), "-0x1.5555555555555p-1", "0x1.5555555555556p-2",
                        "0x1.5555555555554p-2"),
    "Fraction(-3, 4)": (Fraction(-3, 4), "-0x1.8000000000000p-1", "0x1.0000000000000p-2",
                        "0x1.0000000000000p-1"),
    "-0.75": (Fraction(-3, 4), "-0x1.8000000000000p-1", "0x1.0000000000000p-2",
              "0x1.0000000000000p-1"),
    "np.float64(-0.75)": (Fraction(-3, 4), "-0x1.8000000000000p-1", "0x1.0000000000000p-2",
                          "0x1.0000000000000p-1"),
    "np.array(-0.75)": (Fraction(-3, 4), "-0x1.8000000000000p-1", "0x1.0000000000000p-2",
                        "0x1.0000000000000p-1"),
    "-0.7": (Fraction(-3152519739159347, 4503599627370496), "-0x1.6666666666666p-1",
             "0x1.3333333333334p-2", "0x1.9999999999998p-2"),
}


def _hex(*values):
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("beta,area", sorted(PARTS))
def test_log_det_area_parts(beta, area):
    det = envelope.log_det_area(AngleParam(beta), area)
    parts = (det.log_det, det.elementary_part, det.barnes_part, det.area_term)
    assert _hex(*parts) == PARTS[beta, area]


@pytest.mark.parametrize("beta", sorted(DERIVATIVES))
def test_derivatives(beta):
    p = AngleParam(beta)
    assert _hex(envelope.d_log_det(p), envelope.d2_log_det(p)) == DERIVATIVES[beta]


@pytest.mark.parametrize("a,n", sorted(BARNES_SERIES))
def test_zeta_b_prime0_series(a, n):
    out = barnes.zeta_b_prime0_series(a, n)
    assert _hex(out.value, out.error_bound) == BARNES_SERIES[a, n]


@pytest.mark.parametrize("a", sorted(BARNES_INTEGRAL))
def test_integral_route_at_the_ends_of_its_range(a):
    out = barnes.zeta_b_prime0(a)
    got = _hex(out.value, out.error_bound, barnes.d_zeta_b_prime0(a), barnes.d2_zeta_b_prime0(a))
    assert got == BARNES_INTEGRAL[a]


@pytest.mark.parametrize("beta", sorted(CLOSED_FORMS))
def test_closed_form_terms(beta):
    p = AngleParam(beta)
    got = _hex(envelope.zeta0(p), envelope.d_zeta0(p), envelope.d2_zeta0(p),
               envelope.asymptotic_neghalf(p), envelope.convexity_lower_bound(p))
    assert got == CLOSED_FORMS[beta]


@pytest.mark.parametrize("a", sorted(BARNES_RATIONAL), ids=str)
def test_zeta_b_prime0_rational(a):
    out = barnes.zeta_b_prime0_rational(a)
    assert _hex(out.value, out.error_bound) == BARNES_RATIONAL[a]


def test_critical_area():
    assert envelope.critical_area().hex() == CRITICAL_AREA


def _seeded_points(seed: int, count: int) -> list:
    """(beta, area) pairs drawn like the benchmark's scalar calls, with twice
    its share of the edge cases: beta 1e-5 to 1e-2 from an endpoint (a fifth),
    a reduced -n/q with q <= 60 (a fifth) or uniform on [-0.999, -0.501]; the
    area log-uniform on [0.1, 10]."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        u = rng.random()
        if u < 0.2:
            d = 10.0 ** rng.uniform(-5.0, -2.0)
            beta = -1.0 + d if rng.random() < 0.5 else -0.5 - d
        elif u < 0.4:
            q = rng.randint(3, 60)
            beta = -rng.choice([n for n in range(q // 2 + 1, q) if math.gcd(n, q) == 1]) / q
        else:
            beta = rng.uniform(-0.999, -0.501)
        points.append((beta, math.exp(rng.uniform(math.log(0.1), math.log(10.0)))))
    return points


SEEDED_POINTS = _seeded_points(23, 300)


def test_scalar_calls_at_seeded_points():
    lines = []
    for beta, area in SEEDED_POINTS:
        p = AngleParam(beta)
        det = envelope.log_det_area(p, area)
        parts = (det.log_det, det.elementary_part, det.barnes_part, det.area_term,
                 envelope.d_log_det(p), envelope.d2_log_det(p))
        lines.append(" ".join(_hex(*parts)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEEDED_SHA256


def test_rational_route_at_every_fraction_up_to_60ths():
    fractions = sorted(Fraction(-n, q) for q in range(3, 61)
                       for n in range(q // 2 + 1, q) if math.gcd(n, q) == 1)
    lines = []
    for area in (1.0, 3.7):
        for f in fractions:
            det = envelope.log_det_area(AngleParam.from_fraction(f), area, route="rational")
            lines.append(" ".join(_hex(det.log_det, det.elementary_part, det.barnes_part,
                                       det.area_term)))
    assert len(fractions) == 550
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == RATIONAL_SHA256


@pytest.mark.parametrize("given", sorted(FROM_FRACTION))
def test_from_fraction(given):
    p = AngleParam.from_fraction(eval(given, {"Fraction": Fraction, "np": np}))
    exact, *hexes = FROM_FRACTION[given]
    assert type(p.exact) is Fraction and p.exact == exact
    assert type(p.beta) is float and [p.beta.hex(), p.a1.hex(), p.a2.hex()] == hexes
    assert repr(p) == (f"AngleParam(beta={p.beta!r}, exact={exact!r}, "
                       f"a1={p.a1!r}, a2={p.a2!r})")


def test_from_fraction_of_equal_values_is_equal():
    params = [AngleParam.from_fraction(b)
              for b in (Fraction(-3, 4), -0.75, np.float64(-0.75), np.array(-0.75))]
    assert all(p == params[0] and hash(p) == hash(params[0]) for p in params)
    assert AngleParam.from_fraction(-0.75) != AngleParam(-0.75)

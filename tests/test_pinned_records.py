"""Pins of the Szego sweep records.

The values were recorded from the implementation that orthonormalized every
eigenspace by a QR factorization at its sampling level.  Dimensions and
localization counts must stay identical; `logdet_over_d` may move by
rounding (1e-13 relative) and `error` by 1e-14 absolute.
"""
import pytest

from sgszego import szego as sz
from sgszego.functions import parse_function_spec

# (sweep, index, d, logdet_over_d, error, localized_dim, nonlocalized_dim)
PINNED = [
    ("cutoff", 1, 3, 0.42712633093551644, 0.0032853694524144217, 0, 3),
    ("cutoff", 2, 12, 0.4268707346982595, 0.002938579581302947, 0, 12),
    ("cutoff", 3, 39, 0.4261241714894018, 0.0021737620745723163, 12, 27),
    ("cutoff", 4, 120, 0.4254738798287547, 0.001519818313463983, 63, 57),
    ("cutoff", 5, 363, 0.4249923852654797, 0.0010375932344349192, 246, 117),
    ("cutoff", 6, 1092, 0.4246551483087955, 0.000700210167379034, 855, 237),
    ("five", 2, 3, 0.4030460168237284, 0.005199519238857475, 0, 3),
    ("five", 3, 6, 0.400882598394186, 0.0029935118295164598, 3, 3),
    ("five", 4, 15, 0.39922533240543134, 0.0013277184164049438, 12, 3),
    ("five", 5, 42, 0.3984063740832751, 0.0005070538696449467, 39, 3),
    ("five", 6, 123, 0.3980801491696858, 0.0001804876554264423, 120, 3),
    ("six", 3, 12, 0.5143720189616053, 0.013012886702847282, 0, 12),
    ("six", 4, 39, 0.5053641865300778, 0.004005054271319697, 27, 12),
    ("six", 5, 120, 0.5026607749763137, 0.0013016427175556178, 108, 12),
    ("six", 6, 363, 0.5017894273719997, 0.00043029511324166325, 351, 12),
]

SWEEPS = {
    "cutoff": lambda: sz.szego_sweep(
        parse_function_spec("harmonic:1.2,1.5,1.9"), "cutoff", range(1, 7), 1),
    "five": lambda: sz.szego_sweep(
        parse_function_spec("harmonic:1,1.5,2"), "single", range(2, 7), 1, "five"),
    "six": lambda: sz.szego_sweep(
        parse_function_spec("simple:1.5,2.5,1.2"), "single", range(3, 7), 2, "six"),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_records_pinned(sweep):
    expected = [row[1:] for row in PINNED if row[0] == sweep]
    records = SWEEPS[sweep]()
    assert [(r.index, r.dimension, r.localized_dim, r.nonlocalized_dim) for r in records] == [
        (index, d, loc, nonloc) for index, d, _, _, loc, nonloc in expected]
    for r, (index, _, logdet, error, _, _) in zip(records, expected):
        assert abs(r.logdet_over_d - logdet) <= 1e-13 * abs(logdet), (sweep, index)
        assert abs(r.error - error) <= 1e-14, (sweep, index)

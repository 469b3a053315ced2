"""Subspace comparison shared by the tests."""
import numpy as np

from sgszego.topology import interior_weight


def principal_angle_gap(a, b, m_q):
    """Largest principal-angle sine between the column spans of a and b."""
    w = interior_weight(m_q)
    qa = np.linalg.qr(np.sqrt(w) * a)[0]
    qb = np.linalg.qr(np.sqrt(w) * b)[0]
    # sine computed from the projection residual, accurate near zero angle
    ra = qb - qa @ (qa.T @ qb)
    rb = qa - qb @ (qb.T @ qa)
    return float(max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2)))

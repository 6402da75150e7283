import numpy as np
import pytest
import scipy.sparse as sp

from restock.env import ProductCatalog
from restock.simplex import LpProblem


def make_catalog(p=2, volume=None, weight=None, spoilage=None, critical=None,
                 v_max=1.0, c_max=1.0):
    return ProductCatalog(
        unit_volume=np.full(p, 1.0) if volume is None else np.asarray(volume, float),
        unit_weight=np.full(p, 1.0) if weight is None else np.asarray(weight, float),
        spoilage_rate=np.full(p, 0.1) if spoilage is None else np.asarray(spoilage, float),
        critical_level=np.full(p, 0.05) if critical is None else np.asarray(critical, float),
        v_max=v_max,
        c_max=c_max,
    )


def general_lp(c, A, senses, b, lo, hi, maximize=True):
    """An ``LpProblem`` from an LP with ``<``, ``=`` and ``>`` rows that is
    maximized or minimized: a ``>`` row enters ``A_ub`` negated, the ``<``
    and ``>`` rows keep their relative order, and a minimization maximizes
    ``-c``, so its optimum is the negated objective."""
    c, b, senses = np.asarray(c, float), np.asarray(b, float), np.asarray(senses)
    assert set(senses) <= {"<", "=", ">"}
    A = sp.csr_matrix(A if sp.issparse(A)
                      else np.atleast_2d(np.asarray(A, float)))
    ub = senses != "="
    sign = np.where(senses == ">", -1.0, 1.0)[ub]
    return LpProblem(c=c if maximize else -c,
                     A_ub=sp.diags(sign) @ A[ub], b_ub=sign * b[ub],
                     A_eq=A[~ub], b_eq=b[~ub], lo=lo, hi=hi)


@pytest.fixture
def catalog2():
    return make_catalog(p=2)

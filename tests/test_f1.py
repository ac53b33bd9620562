from math import factorial

import pytest

from loosegeo import f1
from loosegeo.gfq import pg_size


@pytest.mark.parametrize("n", range(0, 11))
def test_spec_point_counts(n):
    space = f1.spec_points(n)
    assert len(space.points) == 2 ** n


def test_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        f1.spec_points(21)
    with pytest.raises(ValueError):
        f1.spec_points(-1)


def test_specialization_order():
    space = f1.spec_points(3)
    g, c = 0, (1 << space.n_vars) - 1  # the generic and the closed point
    for p in space.points:
        assert space.leq(g, p)
        assert space.leq(p, c)


@pytest.mark.parametrize("m", range(0, 5))
def test_proj_closed_points_match_pg_over_f2(m):
    assert f1.proj_c_closed_point_count(m) == pg_size(2, m + 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_topo_aut_group_is_symmetric_on_variables(n):
    space = f1.spec_points(n)
    group = f1.topo_aut_group(space)
    assert group.order() == factorial(n)


def listed_topo_auts(space):
    """Every automorphism of the specialization order, by plain backtracking
    with a (down-set, up-set) invariant: the reference for `topo_aut_group`."""
    pts = list(space.points)
    n = len(pts)
    below = [frozenset(j for j, q in enumerate(pts) if space.leq(q, p)) for p in pts]
    above = [frozenset(j for j, q in enumerate(pts) if space.leq(p, q)) for p in pts]
    inv = [(len(below[i]), len(above[i])) for i in range(n)]
    inv = [
        (inv[i], tuple(sorted(inv[j] for j in below[i])), tuple(sorted(inv[j] for j in above[i])))
        for i in range(n)
    ]
    found = []
    image = [-1] * n
    used = [False] * n

    def consistent(i, img):
        if inv[i] != inv[img]:
            return False
        for j in range(n):
            if image[j] < 0 or j == i:
                continue
            if (j in below[i]) != (image[j] in below[img]):
                return False
            if (j in above[i]) != (image[j] in above[img]):
                return False
        return True

    def dfs(i):
        if i == n:
            found.append(tuple(image))
            return
        for img in range(n):
            if used[img] or not consistent(i, img):
                continue
            image[i] = img
            used[img] = True
            dfs(i + 1)
            image[i] = -1
            used[img] = False

    dfs(0)
    return found


@pytest.mark.parametrize("n", range(0, 5))
def test_topo_aut_group_matches_listing(n):
    space = f1.spec_points(n)
    elements = f1.topo_aut_group(space).elements()
    assert len(elements) == len(set(elements))
    assert set(elements) == set(listed_topo_auts(space))


def test_topo_aut_group_searches_past_the_recursion_limit():
    # 1,024 points: the search is one step deeper per point, which a
    # recursive backtrack could not reach under the default recursion limit
    assert f1.topo_aut_group(f1.spec_points(10)).order() == 3628800

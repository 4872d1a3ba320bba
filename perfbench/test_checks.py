"""Each benchmark check accepts a right output and rejects a corrupted one.

Run with:  python3 -m pytest perfbench
"""

import itertools
import math

import numpy as np
import pytest

import checks
import spans


def two_cliques(n: int, sizes) -> np.ndarray:
    """Adjacency with a clique on each planted block and no other edge."""
    A = checks.same_cluster_matrix(checks.planted_labels(n, sizes)).astype(np.int8)
    np.fill_diagonal(A, 0)
    return A


def random_graph(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    return (upper | upper.T).astype(np.int8)


def swap(labels, u, v):
    out = np.array(labels)
    out[u], out[v] = out[v], out[u]
    return out


# -- partitions -------------------------------------------------------------

def test_same_clustering_accepts_relabelling_and_rejects_a_swap():
    planted = checks.planted_labels(7, [3, 3])
    assert checks.same_clustering(planted, np.where(planted == 1, 2, np.where(planted == 2, 1, 0)))
    assert not checks.same_clustering(planted, swap(planted, 0, 3))
    assert not checks.same_clustering(planted, swap(planted, 0, 6))   # with an isolated node
    assert not checks.same_clustering(planted, np.where(planted == 2, 1, planted))


# -- convex -----------------------------------------------------------------

def planted_objective(A, sizes):
    n = A.shape[0]
    return checks.within_mass(A + np.eye(n), checks.planted_labels(n, sizes))


def test_convex_check_accepts_the_planted_optimum():
    A, sizes = two_cliques(8, [4, 4]), [4, 4]
    labels = checks.planted_labels(8, sizes)
    assert checks.check_convex_trial(A, sizes, "none", planted_objective(A, sizes), labels) == []


@pytest.mark.parametrize("corrupt", ["objective", "labels", "kind"])
def test_convex_check_rejects(corrupt):
    A, sizes = two_cliques(8, [4, 4]), [4, 4]
    objective = planted_objective(A, sizes)
    labels = checks.planted_labels(8, sizes)
    kind = "none"
    if corrupt == "objective":
        objective -= 1.0
    elif corrupt == "labels":
        labels = swap(labels, 0, 7)
    else:
        kind = "rounding"
    assert checks.check_convex_trial(A, sizes, kind, objective, labels)


def test_convex_check_leaves_unconverged_rows_to_the_failure_count():
    A, sizes = two_cliques(8, [4, 4]), [4, 4]
    assert checks.check_convex_trial(A, sizes, "nonconvergence", 0.0, None) == []


# -- exhaustive -------------------------------------------------------------

def brute_force_max(A, sizes):
    n = A.shape[0]
    best, count = -1, 0
    for first in itertools.combinations(range(n), sizes[0]):
        rest = [x for x in range(n) if x not in first]
        for second in itertools.combinations(rest, sizes[1]):
            if sizes[0] == sizes[1] and second[0] < first[0]:
                continue
            count += 1
            labels = np.zeros(n, dtype=int)
            labels[list(first)] = 1
            labels[list(second)] = 2
            best = max(best, int(checks.within_mass(A, labels)))
    return best, count


@pytest.mark.parametrize("n,sizes,seed", [(8, [3, 3], 0), (9, [4, 2], 1), (10, [3, 3], 2)])
def test_exhaustive_oracle_matches_brute_force_and_closed_form(n, sizes, seed):
    A = random_graph(n, seed)
    best, count = checks.exhaustive_max(A, sizes)
    assert (best, count) == brute_force_max(A, sizes)
    assert count == checks.closed_form_count(n, sizes)


def test_closed_form_count_of_the_benchmark_config():
    assert checks.closed_form_count(14, [5, 5]) == 126126


def exhaustive_output():
    A, sizes = two_cliques(10, [4, 4]), [4, 4]
    labels = checks.planted_labels(10, sizes)
    return A, sizes, int(checks.within_mass(A, labels)), checks.closed_form_count(10, sizes), labels


def test_exhaustive_check_accepts_the_maximum():
    assert checks.check_exhaustive(*exhaustive_output()) == []


@pytest.mark.parametrize("corrupt", ["objective", "examined", "labels"])
def test_exhaustive_check_rejects(corrupt):
    A, sizes, objective, examined, labels = exhaustive_output()
    if corrupt == "objective":
        objective -= 1
    elif corrupt == "examined":
        examined -= 1
    else:
        labels = swap(labels, 0, 4)
    assert checks.check_exhaustive(A, sizes, objective, examined, labels)


# -- local search -----------------------------------------------------------

def test_swap_gains_match_recomputed_masses():
    A = random_graph(9, 3)
    labels = np.array([1, 1, 1, 2, 2, 2, 0, 0, 1])
    gains = checks.swap_gains(A, labels)
    base = checks.within_mass(A, labels)
    for u, v in itertools.combinations(range(9), 2):
        if labels[u] == labels[v]:
            assert gains[u, v] == -np.inf
        else:
            assert gains[u, v] == checks.within_mass(A, swap(labels, u, v)) - base


def test_local_search_check_accepts_a_local_optimum():
    A, sizes = two_cliques(10, [4, 4]), [4, 4]
    labels = checks.planted_labels(10, sizes)
    assert checks.check_local_search(A, sizes, int(checks.within_mass(A, labels)), labels) == []


@pytest.mark.parametrize("corrupt", ["sizes", "objective", "improvable"])
def test_local_search_check_rejects(corrupt):
    A, sizes = two_cliques(10, [4, 4]), [4, 4]
    labels = checks.planted_labels(10, sizes)
    if corrupt == "sizes":
        labels = np.where(np.arange(10) == 0, 0, labels)
    elif corrupt == "improvable":
        labels = swap(labels, 0, 4)
    objective = int(checks.within_mass(A, labels))
    if corrupt == "objective":
        objective += 1
    assert checks.check_local_search(A, sizes, objective, labels)


# -- counting ---------------------------------------------------------------

def test_counting_check():
    planted = checks.planted_labels(9, [4, 4])
    assert checks.check_counting(9, [4, 4], np.where(planted == 0, 0, 3 - planted)) == []
    assert checks.check_counting(9, [4, 4], swap(planted, 1, 5))
    assert checks.check_counting(9, [4, 4], None)


# -- classification table ---------------------------------------------------

def table_rows():
    rows, shapes = [], {}
    margins = {10**4: (0.5, 2.0, 0.25), 10**5: (0.75, 3.0, 0.25)}
    previous = None
    for n, row_margins in margins.items():
        row = {"example": 1, "n": n, "feasible": True, "regime": "hard", "note": ""}
        for short, margin in zip(checks.TABLE_CHECKS, row_margins):
            row[f"{short}_margin"] = margin
            row[f"{short}_trend"] = math.nan if previous is None else margin / previous[short]
        previous = {short: row[f"{short}_margin"] for short in checks.TABLE_CHECKS}
        rows.append(row)
        shapes[(1, n)] = (2, n - 1)
    return rows, shapes


def test_table1_check_accepts_consistent_rows():
    assert checks.check_table1(*table_rows()) == []


@pytest.mark.parametrize("corrupt", ["trend", "first_trend", "regime", "clusters", "sizes"])
def test_table1_check_rejects(corrupt):
    rows, shapes = table_rows()
    if corrupt == "trend":
        rows[1]["global_trend"] += 1.0
    elif corrupt == "first_trend":
        rows[0]["search_trend"] = 1.0
    elif corrupt == "regime":
        rows[0]["regime"] = "medium"
    elif corrupt == "clusters":
        shapes[(1, 10**5)] = (3, 10**5 - 1)
    else:
        shapes[(1, 10**4)] = (2, 10**4 + 1)
    assert checks.check_table1(rows, shapes)


def test_expected_clusters_follow_the_templates():
    assert checks.expected_clusters(3, 10**4) == 102
    assert checks.expected_clusters(4, 10**5) == 1001
    assert checks.expected_clusters(2, 10**6) == 11


# -- spans ------------------------------------------------------------------

def span(id_, start, end, parent=None):
    return spans.Span(id_, "s", start, end, parent, 0, 0.0)


def test_self_time_subtracts_the_union_of_children():
    tree = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, 1), span(3, 3.0, 6.0, 1),
            span(4, 8.0, 9.0, 1), span(5, 1.5, 2.0, 2)]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    tracer = spans.Tracer()
    original = Module.inner
    tracer.wrap(Module, "inner", "inner", lambda r: {"value": r})
    tracer.wrap(Module, "outer", "outer")
    assert Module.outer(1) == 4
    tracer.close()
    assert Module.inner is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].counts == {"value": 2}

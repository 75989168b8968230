import numpy as np

from growcl.encoder import PromptSet
from growcl.pool import PromptPool
from trace_fixtures import (
    SIX_SETS_DECISIONS,
    SIX_SETS_FINAL_POOL,
    TWO_SETS_DECISIONS,
    TWO_SETS_FINAL_POOL,
)


def make_set(key, set_id=-1):
    return PromptSet(np.zeros((2, 3, 4)), np.asarray(key, dtype=float), set_id)


def retrieve_one(pool, q):
    """The set ``retrieve_batch`` picks for the single query ``q``."""
    return int(pool.retrieve_batch(np.asarray(q)[None])[0])


def replay_pool(decisions):
    """Apply a decision sequence (1-based set ids) and return assignments."""
    pool = PromptPool()
    by_label = {}  # printed 1-based label -> internal id
    next_label = 1
    for task, dec in enumerate(decisions, start=1):
        if dec == "grow":
            sid = pool.add_set(make_set(np.ones(4)), task)
            by_label[next_label] = sid
            next_label += 1
        else:
            pool.assign_task(by_label[dec[1]], task)
    return pool, by_label


class TestRegistry:
    def test_add_first_set(self):
        pool = PromptPool()
        sid = pool.add_set(make_set([1, 0, 0, 0]), task=1)
        assert sid == 0
        assert len(pool) == 1
        assert pool.assignments == {0: [1]}

    def test_assign_keeps_size(self):
        pool = PromptPool()
        pool.add_set(make_set([1, 0, 0, 0]), task=1)
        pool.assign_task(0, 4)
        assert len(pool) == 1
        assert pool.assignments[0] == [1, 4]

    def test_six_set_trace_assignments(self):
        pool, labels = replay_pool(SIX_SETS_DECISIONS)
        got = {lbl: pool.assignments[sid] for lbl, sid in labels.items()}
        assert got == SIX_SETS_FINAL_POOL
        assert len(pool) == 6

    def test_two_set_trace_assignments(self):
        pool, labels = replay_pool(TWO_SETS_DECISIONS)
        got = {lbl: pool.assignments[sid] for lbl, sid in labels.items()}
        assert got == TWO_SETS_FINAL_POOL
        assert len(pool) == 2

    def test_set_for_task(self):
        pool, _ = replay_pool(SIX_SETS_DECISIONS)
        assert pool.set_for_task(7) == pool.set_for_task(3)


class TestRetrieve:
    def test_exact_key_match(self):
        pool = PromptPool()
        keys = np.eye(4)
        for t in range(4):
            pool.add_set(make_set(keys[t]), task=t + 1)
        assert retrieve_one(pool, keys[2]) == 2

    def test_single_set_always_wins(self):
        pool = PromptPool()
        pool.add_set(make_set([1.0, 2.0, 3.0, 4.0]), task=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert retrieve_one(pool, rng.standard_normal(4)) == 0

    def test_matches_brute_force_cosine(self):
        rng = np.random.default_rng(1)
        pool = PromptPool()
        keys = rng.standard_normal((6, 4))
        keys[:, 0] = np.abs(keys[:, 0])
        keys[4] = 0.0  # a zero-norm key scores 0 against every query
        for t in range(6):
            pool.add_set(make_set(keys[t]), task=t + 1)

        def brute_force(q):
            norms = [np.linalg.norm(q) * np.linalg.norm(k) for k in keys]
            scores = [q @ k / n if n > 0 else 0.0 for k, n in zip(keys, norms)]
            return int(np.argmax(scores))

        queries = rng.standard_normal((50, 4))
        queries[7] = 0.0  # a zero-norm query scores 0 everywhere: lowest id
        queries[8] = [-1.0, 0.0, 0.0, 0.0]  # obtuse to every other key: the zero key wins
        want = [brute_force(q) for q in queries]
        assert want[7] == 0 and want[8] == 4
        assert [retrieve_one(pool, q) for q in queries] == want
        assert pool.retrieve_batch(queries).tolist() == want

    def test_tie_breaks_to_lowest_id(self):
        pool = PromptPool()
        pool.add_set(make_set([2.0, 0.0, 0.0, 0.0]), task=1)
        pool.add_set(make_set([1.0, 0.0, 0.0, 0.0]), task=2)  # same direction
        assert retrieve_one(pool, np.array([1.0, 0.0, 0.0, 0.0])) == 0

    def test_permutation_covariance(self):
        rng = np.random.default_rng(2)
        keys = rng.standard_normal((4, 4))
        pool = PromptPool()
        for t in range(4):
            pool.add_set(make_set(keys[t]), task=t + 1)
        perm = [2, 0, 3, 1]
        permuted = PromptPool()
        for t, j in enumerate(perm):
            permuted.add_set(make_set(keys[j]), task=t + 1)
        for _ in range(20):
            q = rng.standard_normal(4)
            assert perm[retrieve_one(permuted, q)] == retrieve_one(pool, q)

    def test_retrieve_batch(self):
        pool = PromptPool()
        keys = np.eye(3, 4)
        for t in range(3):
            pool.add_set(make_set(keys[t]), task=t + 1)
        out = pool.retrieve_batch(np.eye(3, 4)[::-1])
        assert out.tolist() == [2, 1, 0]
